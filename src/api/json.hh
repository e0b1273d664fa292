/**
 * @file
 * JSON serialization of simulation results, so loas_cli and external
 * tooling (plotting scripts, dashboards, regression checks) can consume
 * a SimReport without parsing ASCII tables. Hand-rolled writer — the
 * tree has no JSON dependency and the schema is small.
 */

#pragma once

#include <cstdint>
#include <string>

#include "accel/op_counts.hh"
#include "accel/run_result.hh"
#include "api/sim_engine.hh"
#include "energy/energy_model.hh"
#include "mem/traffic.hh"

namespace loas {
namespace json {

/** JSON string literal with escaping, including the quotes. */
std::string quote(const std::string& s);

/** Decimal integer rendering. */
std::string num(std::uint64_t v);

/** Round-trip-exact (%.17g) double rendering. */
std::string num(double v);

/** Shift an already-rendered multi-line value two spaces deeper. */
std::string shift(const std::string& rendered);

/** The `--cache-stats` document: a run's cache counters plus the
 *  workload synthesis it needed (SimReport::synth_layers/synth_ms). */
std::string toJson(const CompiledCache::Stats& stats,
                   std::uint64_t synth_layers, double synth_ms);
std::string toJson(const OpCounts& ops);
std::string toJson(const TrafficStats& traffic);
std::string toJson(const EnergyBreakdown& energy);
std::string toJson(const RunResult& result);
std::string toJson(const SimRun& run);

/** Whole report: `{"runs": [...]}`, pretty-printed. */
std::string toJson(const SimReport& report);

} // namespace json
} // namespace loas
