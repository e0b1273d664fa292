/**
 * @file
 * The zero-allocation contract of steady-state execution: once an
 * accelerator instance is warm, executing every input of a layer makes
 * no heap allocation — on every registered design, on the fused
 * SparTen datapath and in the inner join. This is the one test binary
 * that links the counting operator new (src/common/alloc_hook.cc).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "api/accel_spec.hh"
#include "api/registry.hh"
#include "common/alloc_hook.hh"
#include "common/rng.hh"
#include "core/inner_join.hh"
#include "tensor/ranked_bitmask.hh"
#include "workload/generator.hh"
#include "workload/networks.hh"

namespace loas {
namespace {

/** alexnet-l4 cut to 64 rows. The name stays within the small-string
 *  capacity on purpose: RunResult carries it by value. */
LayerSpec
steadyLayer()
{
    LayerSpec spec = tables::alexnetL4();
    spec.m = 64;
    spec.name = "steady";
    return spec;
}

/** Heap allocations while `instance` executes every input of
 *  `compiled` once, after two warm-up passes. */
std::uint64_t
steadyAllocations(Accelerator& instance, const CompiledLayer& compiled)
{
    std::uint64_t cycles = 0;
    const auto pass = [&] {
        for (std::size_t b = 0; b < compiled.batch; ++b)
            cycles += instance.executeInput(compiled, b).total_cycles;
    };
    pass();
    pass();
    const std::uint64_t before = allochook::allocationCount();
    pass();
    const std::uint64_t allocations =
        allochook::allocationCount() - before;
    EXPECT_GT(cycles, 0u);
    return allocations;
}

TEST(AllocSteady, CountingHookIsLinked)
{
    // Without the hook every count below reads 0 whatever happens.
    EXPECT_TRUE(allochook::active());
}

TEST(AllocSteady, WarmExecuteOfEveryInputAllocatesNothing)
{
    const auto& registry = AcceleratorRegistry::instance();
    std::vector<std::string> designs = registry.keys();
    designs.push_back("sparten?fused=1"); // an option, not a key
    for (const std::string& design : designs) {
        const bool ft =
            registry.entry(parseAccelSpec(design).key).ft_workload;
        for (const std::size_t batch : {1u, 4u}) {
            SCOPED_TRACE(design + " at batch " + std::to_string(batch));
            const LayerData layer =
                generateLayer(steadyLayer(), 101, ft, batch);
            const auto instance = registry.make(design);
            const CompiledLayer compiled = instance->prepare(layer);
            ASSERT_EQ(compiled.batch, batch);
            EXPECT_EQ(steadyAllocations(*instance, compiled), 0u);
        }
    }
}

TEST(AllocSteady, WarmInnerJoinAllocatesNothing)
{
    // A VGG-class fiber pair: K = 2304, Table II-like densities.
    const std::size_t k = 2304;
    Rng rng(101);
    SpikeFiber a;
    a.mask = Bitmask(k);
    WeightFiber b;
    b.mask = Bitmask(k);
    for (std::size_t i = 0; i < k; ++i) {
        if (rng.bernoulli(0.25)) {
            a.mask.set(i);
            a.values.push_back(
                static_cast<TimeWord>(1 + rng.uniformInt(15)));
        }
        if (rng.bernoulli(0.03)) {
            b.mask.set(i);
            b.values.push_back(
                static_cast<std::int32_t>(rng.uniformInt(255)) - 127);
        }
    }
    const RankedBitmask rank_a(a.mask);
    const RankedBitmask rank_b(b.mask);
    const InnerJoinUnit unit(InnerJoinConfig{}, 4);
    JoinScratch scratch;
    unit.join(a, rank_a, b, rank_b, 0, scratch); // warm the scratch

    std::uint64_t matches = 0;
    const std::uint64_t before = allochook::allocationCount();
    for (int i = 0; i < 100; ++i)
        matches += unit.join(a, rank_a, b, rank_b, 0, scratch).matches;
    EXPECT_EQ(allochook::allocationCount() - before, 0u);
    EXPECT_GT(matches, 0u);
}

} // namespace
} // namespace loas
