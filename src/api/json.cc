#include "api/json.hh"

#include <cstdio>
#include <utility>
#include <vector>

namespace loas {
namespace json {

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
shift(const std::string& rendered)
{
    std::string out;
    for (const char c : rendered) {
        out += c;
        if (c == '\n')
            out += "  ";
    }
    return out;
}

namespace {

/** Accumulates `"key": value` pairs and renders one JSON object. */
class Obj
{
  public:
    Obj&
    field(const char* key, std::string value)
    {
        fields_.emplace_back(key, std::move(value));
        return *this;
    }

    Obj& field(const char* key, std::uint64_t v)
    {
        return field(key, num(v));
    }

    Obj& field(const char* key, double v) { return field(key, num(v)); }

    Obj& str(const char* key, const std::string& v)
    {
        return field(key, quote(v));
    }

    std::string render() const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Render `{...}`; nested values are re-indented so levels compose. */
std::string
Obj::render() const
{
    std::string out = "{\n";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        out += "  \"" + fields_[i].first +
               "\": " + shift(fields_[i].second);
        out += i + 1 < fields_.size() ? ",\n" : "\n";
    }
    out += "}";
    return out;
}

std::string
categoryBytes(const std::array<std::uint64_t, kNumCategories>& bytes)
{
    Obj obj;
    for (int c = 0; c < kNumCategories; ++c)
        obj.field(tensorCategoryName(static_cast<TensorCategory>(c)),
                  bytes[static_cast<std::size_t>(c)]);
    return obj.render();
}

} // namespace

std::string
quote(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
toJson(const CompiledCache::Stats& stats, std::uint64_t synth_layers,
       double synth_ms)
{
    return Obj()
        .field("hits", stats.hits)
        .field("misses", stats.misses)
        .field("disk_hits", stats.disk_hits)
        .field("disk_writes", stats.disk_writes)
        .field("disk_rejects", stats.disk_rejects)
        .field("evictions", stats.evictions)
        .field("disk_trips", stats.disk_trips)
        .field("disk_tmp_swept", stats.disk_tmp_swept)
        .field("disk_degraded", stats.disk_degraded)
        .field("entries", stats.entries)
        .field("bytes", stats.bytes)
        .field("compile_ms", stats.compile_ms)
        .field("synth_layers", synth_layers)
        .field("synth_ms", synth_ms)
        .render();
}

std::string
toJson(const OpCounts& ops)
{
    return Obj()
        .field("acc", ops.acc_ops)
        .field("correction", ops.correction_ops)
        .field("mac", ops.mac_ops)
        .field("fast_prefix", ops.fast_prefix_ops)
        .field("laggy_prefix", ops.laggy_prefix_ops)
        .field("fifo", ops.fifo_ops)
        .field("lif", ops.lif_ops)
        .field("mask_and", ops.mask_and_ops)
        .field("merge", ops.merge_ops)
        .field("encode", ops.encode_ops)
        .field("total", ops.total())
        .render();
}

std::string
toJson(const TrafficStats& traffic)
{
    return Obj()
        .field("dram_read_bytes", categoryBytes(traffic.dram_read))
        .field("dram_write_bytes", categoryBytes(traffic.dram_write))
        .field("sram_read_bytes", categoryBytes(traffic.sram_read))
        .field("sram_write_bytes", categoryBytes(traffic.sram_write))
        .field("dram_total_bytes", traffic.dramBytes())
        .field("sram_total_bytes", traffic.sramBytes())
        .render();
}

std::string
toJson(const EnergyBreakdown& energy)
{
    return Obj()
        .field("compute_pj", energy.compute_pj)
        .field("sram_pj", energy.sram_pj)
        .field("dram_pj", energy.dram_pj)
        .field("static_pj", energy.static_pj)
        .field("total_pj", energy.totalPj())
        .render();
}

std::string
toJson(const RunResult& result)
{
    return Obj()
        .str("accel", result.accel)
        .str("workload", result.workload)
        .field("compute_cycles", result.compute_cycles)
        .field("dram_cycles", result.dram_cycles)
        .field("total_cycles", result.total_cycles)
        .field("cache_hits", result.cache_hits)
        .field("cache_misses", result.cache_misses)
        .field("cache_miss_rate", result.cacheMissRate())
        .field("static_scale", result.static_scale)
        .field("traffic", toJson(result.traffic))
        .field("ops", toJson(result.ops))
        .render();
}

std::string
toJson(const SimRun& run)
{
    Obj obj;
    obj.str("accel_spec", run.accel_spec)
        .str("network", run.network)
        .field("result", toJson(run.result))
        .field("energy", toJson(run.energy));
    // Batched cells carry their per-input results; unbatched cells
    // leave per_input empty, keeping batch-1 reports byte-identical to
    // the pre-batching schema.
    if (!run.per_input.empty()) {
        std::string inputs = "[\n";
        for (std::size_t b = 0; b < run.per_input.size(); ++b) {
            inputs += "  " + shift(toJson(run.per_input[b]));
            inputs += b + 1 < run.per_input.size() ? ",\n" : "\n";
        }
        inputs += "]";
        obj.field("inputs", inputs);
    }
    return obj.render();
}

std::string
toJson(const SimReport& report)
{
    // Deliberately runs-only: cache counters and compile wall time
    // vary cold vs warm and run to run, and the report artifact must
    // stay cache-agnostic (byte-identical however it was produced) —
    // the serve daemon's golden-identity contract and the CI cmp
    // checks both depend on it. Accounting travels separately, via
    // --cache-stats and the serve response's stats object.
    std::string runs = "[\n";
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        runs += "  " + shift(toJson(report.runs[i]));
        runs += i + 1 < report.runs.size() ? ",\n" : "\n";
    }
    runs += "]";
    return Obj().field("runs", runs).render() + "\n";
}

} // namespace json
} // namespace loas
