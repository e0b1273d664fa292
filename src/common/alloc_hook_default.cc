/**
 * @file
 * Weak fallback for the allocation-counter interface: linked into
 * loas_core so any binary can query the hook, reporting inactive (and
 * a zero count) unless alloc_hook.cc's strong definitions — and with
 * them the counting operator-new replacement — are linked in. This is
 * what makes AllocSteady.CountingHookIsLinked a real check: a
 * mis-linked measuring binary reports inactive and fails it instead
 * of silently reporting vacuous zero-allocation counts.
 */

#include "common/alloc_hook.hh"

namespace loas::allochook {

__attribute__((weak)) std::uint64_t
allocationCount()
{
    return 0;
}

__attribute__((weak)) bool
active()
{
    return false;
}

} // namespace loas::allochook
