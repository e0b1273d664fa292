/**
 * @file
 * Heap-allocation counter for the zero-allocation checks: a
 * replacement global operator new/delete pair that counts every
 * allocation. The defining translation unit (alloc_hook.cc) is linked
 * ONLY into the binaries that measure allocations (loas_cli,
 * micro_kernels and the test_alloc_steady ctest) — it is deliberately
 * excluded from loas_core so library consumers and the other tests
 * keep the toolchain allocator untouched.
 */

#pragma once

#include <cstdint>

namespace loas::allochook {

/**
 * Heap allocations observed in this process so far (0 when only the
 * weak fallback from alloc_hook_default.cc is linked).
 */
std::uint64_t allocationCount();

/**
 * True in binaries that link the counting operator-new replacement;
 * false under the weak fallback. Callers measuring allocations must
 * check this — a zero count is only meaningful when the hook is live.
 */
bool active();

} // namespace loas::allochook
