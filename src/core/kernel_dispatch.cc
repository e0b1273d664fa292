#include "core/kernel_dispatch.hh"

#include <cstdlib>

#include "common/logging.hh"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define LOAS_KERNELS_X86 1
#else
#define LOAS_KERNELS_X86 0
#endif

namespace loas {
namespace kernels {

namespace {

// ---------------------------------------------------------------- scalar

std::uint64_t
scalarAndPopcountWords(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n)
{
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < n; ++i)
        count += static_cast<std::uint64_t>(
            __builtin_popcountll(a[i] & b[i]));
    return count;
}

std::size_t
scalarFirstMatchWord(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t w, std::size_t w_end)
{
    for (; w < w_end; ++w)
        if ((a[w] & b[w]) != 0)
            return w;
    return w_end;
}

/** Low `bit` bits of a word (bit in [0, 63]). */
inline std::uint64_t
lowBits(int bit)
{
    return (std::uint64_t(1) << bit) - 1;
}

std::uint64_t
scalarFusedFanoutJoin(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t n, const std::uint32_t* rank_a,
                      const std::uint32_t* rank_b,
                      const std::uint32_t* a_vals,
                      const std::int32_t* b_vals, int timesteps,
                      std::int32_t* sums, std::uint64_t* acc_ops)
{
    (void)timesteps; // The scalar fan-out indexes sums[] directly.
    std::uint64_t matches = 0;
    std::uint64_t accs = 0;
    for (std::size_t w = scalarFirstMatchWord(a, b, 0, n); w < n;
         w = scalarFirstMatchWord(a, b, w + 1, n)) {
        const std::uint64_t aw = a[w];
        const std::uint64_t bw = b[w];
        std::uint64_t x = aw & bw;
        const std::uint32_t ra = rank_a[w];
        const std::uint32_t rb = rank_b[w];
        while (x) {
            const int bit = __builtin_ctzll(x);
            x &= x - 1;
            const std::uint64_t low = lowBits(bit);
            const std::uint32_t tw =
                a_vals[ra + static_cast<std::uint32_t>(
                                __builtin_popcountll(aw & low))];
            const std::int32_t weight =
                b_vals[rb + static_cast<std::uint32_t>(
                                __builtin_popcountll(bw & low))];
            accs += static_cast<std::uint64_t>(
                __builtin_popcount(tw));
            std::uint32_t t_bits = tw;
            while (t_bits) {
                const int t = __builtin_ctz(t_bits);
                t_bits &= t_bits - 1;
                sums[t] += weight;
            }
            ++matches;
        }
    }
    *acc_ops += accs;
    return matches;
}

std::uint64_t
scalarFusedCollapseJoin(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n, const std::uint32_t* rank_a,
                        const std::uint32_t* rank_b,
                        const std::uint32_t* a_vals,
                        const std::int32_t* b_vals, int timesteps,
                        std::uint32_t all_ones, std::int64_t* pseudo,
                        std::int64_t* correction,
                        std::uint64_t* acc_ops,
                        std::uint64_t* correction_ops)
{
    (void)timesteps; // all_ones already encodes the timestep width.
    std::uint64_t matches = 0;
    std::uint64_t accs = 0;
    std::uint64_t corrs = 0;
    std::int64_t p = 0;
    for (std::size_t w = scalarFirstMatchWord(a, b, 0, n); w < n;
         w = scalarFirstMatchWord(a, b, w + 1, n)) {
        const std::uint64_t aw = a[w];
        const std::uint64_t bw = b[w];
        std::uint64_t x = aw & bw;
        const std::uint32_t ra = rank_a[w];
        const std::uint32_t rb = rank_b[w];
        while (x) {
            const int bit = __builtin_ctzll(x);
            x &= x - 1;
            const std::uint64_t low = lowBits(bit);
            const std::uint32_t tw =
                a_vals[ra + static_cast<std::uint32_t>(
                                __builtin_popcountll(aw & low))];
            const std::int32_t weight =
                b_vals[rb + static_cast<std::uint32_t>(
                                __builtin_popcountll(bw & low))];
            p += weight;
            ++accs;
            std::uint32_t zeros = ~tw & all_ones;
            corrs += static_cast<std::uint64_t>(
                __builtin_popcount(zeros));
            while (zeros) {
                const int t = __builtin_ctz(zeros);
                zeros &= zeros - 1;
                correction[t] += weight;
            }
            ++matches;
        }
    }
    *pseudo += p;
    *acc_ops += accs;
    *correction_ops += corrs;
    return matches;
}

#if LOAS_KERNELS_X86

// ----------------------------------------------------------------- AVX2

/**
 * Nibble-LUT popcount of one 256-bit AND lane pair: pshufb maps each
 * nibble to its bit count, _mm256_sad_epu8 horizontally sums bytes
 * into four 64-bit lanes.
 */
__attribute__((target("avx2"))) inline __m256i
avx2PopcountBytes(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1,
        2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

__attribute__((target("avx2"))) std::uint64_t
avx2AndPopcountWords(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t n)
{
    std::size_t i = 0;
    __m256i acc = _mm256_setzero_si256();
    for (; i + 4 <= n; i += 4) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
        const __m256i bytes =
            avx2PopcountBytes(_mm256_and_si256(va, vb));
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(bytes, _mm256_setzero_si256()));
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
    std::uint64_t count = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i)
        count += static_cast<std::uint64_t>(
            __builtin_popcountll(a[i] & b[i]));
    return count;
}

__attribute__((target("avx2"))) std::size_t
avx2FirstMatchWord(const std::uint64_t* a, const std::uint64_t* b,
                   std::size_t w, std::size_t w_end)
{
    while (w + 4 <= w_end) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
        const __m256i v = _mm256_and_si256(va, vb);
        if (!_mm256_testz_si256(v, v))
            break; // A hit inside this block: finish word-at-a-time.
        w += 4;
    }
    return scalarFirstMatchWord(a, b, w, w_end);
}

/**
 * AVX2 fused fan-out: the 8 timestep accumulators live in one ymm of
 * int32 lanes; each match is one emulated masked add (lane-bit test
 * against the broadcast temporal word selects which lanes take the
 * broadcast weight). Falls back to the scalar kernel above 8
 * timesteps. Integer lane adds are exact, so the result is identical
 * to the scalar fan-out loop.
 */
__attribute__((target("avx2"))) std::uint64_t
avx2FusedFanoutJoin(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n, const std::uint32_t* rank_a,
                    const std::uint32_t* rank_b,
                    const std::uint32_t* a_vals,
                    const std::int32_t* b_vals, int timesteps,
                    std::int32_t* sums, std::uint64_t* acc_ops)
{
    if (timesteps > 8)
        return scalarFusedFanoutJoin(a, b, n, rank_a, rank_b, a_vals,
                                     b_vals, timesteps, sums, acc_ops);
    const __m256i lane_bits =
        _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    __m256i acc = _mm256_setzero_si256();
    std::uint64_t matches = 0;
    std::uint64_t accs = 0;
    for (std::size_t w = avx2FirstMatchWord(a, b, 0, n); w < n;
         w = avx2FirstMatchWord(a, b, w + 1, n)) {
        const std::uint64_t aw = a[w];
        const std::uint64_t bw = b[w];
        std::uint64_t x = aw & bw;
        const std::uint32_t ra = rank_a[w];
        const std::uint32_t rb = rank_b[w];
        while (x) {
            const int bit = __builtin_ctzll(x);
            x &= x - 1;
            const std::uint64_t low = lowBits(bit);
            const std::uint32_t tw =
                a_vals[ra + static_cast<std::uint32_t>(
                                __builtin_popcountll(aw & low))];
            const std::int32_t weight =
                b_vals[rb + static_cast<std::uint32_t>(
                                __builtin_popcountll(bw & low))];
            accs += static_cast<std::uint64_t>(
                __builtin_popcount(tw));
            const __m256i hit = _mm256_cmpeq_epi32(
                _mm256_and_si256(
                    _mm256_set1_epi32(static_cast<int>(tw)),
                    lane_bits),
                lane_bits);
            acc = _mm256_add_epi32(
                acc,
                _mm256_and_si256(hit, _mm256_set1_epi32(weight)));
            ++matches;
        }
    }
    alignas(32) std::int32_t lanes[8];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (int t = 0; t < timesteps; ++t)
        sums[t] = lanes[t];
    *acc_ops += accs;
    return matches;
}

/**
 * AVX2 fused collapse: the (64-bit) correction accumulators live in
 * two ymms of int64 lanes, masked by the *zero* timestep bits of each
 * match. Falls back to the scalar kernel above 8 timesteps.
 */
__attribute__((target("avx2"))) std::uint64_t
avx2FusedCollapseJoin(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t n, const std::uint32_t* rank_a,
                      const std::uint32_t* rank_b,
                      const std::uint32_t* a_vals,
                      const std::int32_t* b_vals, int timesteps,
                      std::uint32_t all_ones, std::int64_t* pseudo,
                      std::int64_t* correction, std::uint64_t* acc_ops,
                      std::uint64_t* correction_ops)
{
    if (timesteps > 8)
        return scalarFusedCollapseJoin(a, b, n, rank_a, rank_b, a_vals,
                                       b_vals, timesteps, all_ones,
                                       pseudo, correction, acc_ops,
                                       correction_ops);
    const __m256i lo_bits = _mm256_setr_epi64x(1, 2, 4, 8);
    const __m256i hi_bits = _mm256_setr_epi64x(16, 32, 64, 128);
    __m256i acc_lo = _mm256_setzero_si256();
    __m256i acc_hi = _mm256_setzero_si256();
    std::uint64_t matches = 0;
    std::uint64_t accs = 0;
    std::uint64_t corrs = 0;
    std::int64_t p = 0;
    for (std::size_t w = avx2FirstMatchWord(a, b, 0, n); w < n;
         w = avx2FirstMatchWord(a, b, w + 1, n)) {
        const std::uint64_t aw = a[w];
        const std::uint64_t bw = b[w];
        std::uint64_t x = aw & bw;
        const std::uint32_t ra = rank_a[w];
        const std::uint32_t rb = rank_b[w];
        while (x) {
            const int bit = __builtin_ctzll(x);
            x &= x - 1;
            const std::uint64_t low = lowBits(bit);
            const std::uint32_t tw =
                a_vals[ra + static_cast<std::uint32_t>(
                                __builtin_popcountll(aw & low))];
            const std::int32_t weight =
                b_vals[rb + static_cast<std::uint32_t>(
                                __builtin_popcountll(bw & low))];
            p += weight;
            ++accs;
            const std::uint32_t zeros = ~tw & all_ones;
            corrs += static_cast<std::uint64_t>(
                __builtin_popcount(zeros));
            const __m256i zv = _mm256_set1_epi64x(
                static_cast<long long>(zeros));
            const __m256i wv = _mm256_set1_epi64x(
                static_cast<long long>(weight));
            acc_lo = _mm256_add_epi64(
                acc_lo,
                _mm256_and_si256(
                    _mm256_cmpeq_epi64(
                        _mm256_and_si256(zv, lo_bits), lo_bits),
                    wv));
            acc_hi = _mm256_add_epi64(
                acc_hi,
                _mm256_and_si256(
                    _mm256_cmpeq_epi64(
                        _mm256_and_si256(zv, hi_bits), hi_bits),
                    wv));
            ++matches;
        }
    }
    alignas(32) std::int64_t lanes[8];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc_lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes + 4), acc_hi);
    for (int t = 0; t < timesteps; ++t)
        correction[t] = lanes[t];
    *pseudo += p;
    *acc_ops += accs;
    *correction_ops += corrs;
    return matches;
}

// --------------------------------------------------------------- AVX-512

__attribute__((target("avx512f,avx512vpopcntdq"))) std::uint64_t
avx512AndPopcountWords(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n)
{
    std::size_t i = 0;
    __m512i acc = _mm512_setzero_si512();
    for (; i + 8 <= n; i += 8) {
        const __m512i va = _mm512_loadu_si512(a + i);
        const __m512i vb = _mm512_loadu_si512(b + i);
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
    }
    // Not _mm512_reduce_add_epi64: its expansion goes through
    // _mm256_undefined_si256, which gcc 12 flags -Wuninitialized
    // (a false positive, but the CI build is -Werror).
    alignas(64) std::uint64_t acc_lanes[8];
    _mm512_storeu_si512(acc_lanes, acc);
    std::uint64_t count = 0;
    for (int l = 0; l < 8; ++l)
        count += acc_lanes[l];
    for (; i < n; ++i)
        count += static_cast<std::uint64_t>(
            __builtin_popcountll(a[i] & b[i]));
    return count;
}

__attribute__((target("avx512f"))) std::size_t
avx512FirstMatchWord(const std::uint64_t* a, const std::uint64_t* b,
                     std::size_t w, std::size_t w_end)
{
    while (w + 8 <= w_end) {
        const __m512i va = _mm512_loadu_si512(a + w);
        const __m512i vb = _mm512_loadu_si512(b + w);
        const __mmask8 hits =
            _mm512_test_epi64_mask(va, vb); // (va & vb) != 0 per lane
        if (hits != 0)
            return w + static_cast<std::size_t>(__builtin_ctz(
                           static_cast<unsigned>(hits)));
        w += 8;
    }
    return scalarFirstMatchWord(a, b, w, w_end);
}

/**
 * AVX-512 fused fan-out: up to 16 timestep accumulators in one zmm of
 * int32 lanes; the packed temporal word is the lane mask of one
 * native masked add per match. Falls back to the scalar kernel above
 * 16 timesteps.
 */
__attribute__((target("avx512f"))) std::uint64_t
avx512FusedFanoutJoin(const std::uint64_t* a, const std::uint64_t* b,
                      std::size_t n, const std::uint32_t* rank_a,
                      const std::uint32_t* rank_b,
                      const std::uint32_t* a_vals,
                      const std::int32_t* b_vals, int timesteps,
                      std::int32_t* sums, std::uint64_t* acc_ops)
{
    if (timesteps > 16)
        return scalarFusedFanoutJoin(a, b, n, rank_a, rank_b, a_vals,
                                     b_vals, timesteps, sums, acc_ops);
    __m512i acc = _mm512_setzero_si512();
    std::uint64_t matches = 0;
    std::uint64_t accs = 0;
    for (std::size_t w = avx512FirstMatchWord(a, b, 0, n); w < n;
         w = avx512FirstMatchWord(a, b, w + 1, n)) {
        const std::uint64_t aw = a[w];
        const std::uint64_t bw = b[w];
        std::uint64_t x = aw & bw;
        const std::uint32_t ra = rank_a[w];
        const std::uint32_t rb = rank_b[w];
        while (x) {
            const int bit = __builtin_ctzll(x);
            x &= x - 1;
            const std::uint64_t low = lowBits(bit);
            const std::uint32_t tw =
                a_vals[ra + static_cast<std::uint32_t>(
                                __builtin_popcountll(aw & low))];
            const std::int32_t weight =
                b_vals[rb + static_cast<std::uint32_t>(
                                __builtin_popcountll(bw & low))];
            accs += static_cast<std::uint64_t>(
                __builtin_popcount(tw));
            acc = _mm512_mask_add_epi32(
                acc, static_cast<__mmask16>(tw), acc,
                _mm512_set1_epi32(weight));
            ++matches;
        }
    }
    alignas(64) std::int32_t lanes[16];
    _mm512_storeu_si512(lanes, acc);
    for (int t = 0; t < timesteps; ++t)
        sums[t] = lanes[t];
    *acc_ops += accs;
    return matches;
}

/**
 * AVX-512 fused collapse: up to 16 (64-bit) correction accumulators
 * in two zmms of int64 lanes, masked by the *zero* timestep bits.
 * Falls back to the scalar kernel above 16 timesteps.
 */
__attribute__((target("avx512f"))) std::uint64_t
avx512FusedCollapseJoin(const std::uint64_t* a, const std::uint64_t* b,
                        std::size_t n, const std::uint32_t* rank_a,
                        const std::uint32_t* rank_b,
                        const std::uint32_t* a_vals,
                        const std::int32_t* b_vals, int timesteps,
                        std::uint32_t all_ones, std::int64_t* pseudo,
                        std::int64_t* correction,
                        std::uint64_t* acc_ops,
                        std::uint64_t* correction_ops)
{
    if (timesteps > 16)
        return scalarFusedCollapseJoin(a, b, n, rank_a, rank_b, a_vals,
                                       b_vals, timesteps, all_ones,
                                       pseudo, correction, acc_ops,
                                       correction_ops);
    __m512i acc_lo = _mm512_setzero_si512();
    __m512i acc_hi = _mm512_setzero_si512();
    std::uint64_t matches = 0;
    std::uint64_t accs = 0;
    std::uint64_t corrs = 0;
    std::int64_t p = 0;
    for (std::size_t w = avx512FirstMatchWord(a, b, 0, n); w < n;
         w = avx512FirstMatchWord(a, b, w + 1, n)) {
        const std::uint64_t aw = a[w];
        const std::uint64_t bw = b[w];
        std::uint64_t x = aw & bw;
        const std::uint32_t ra = rank_a[w];
        const std::uint32_t rb = rank_b[w];
        while (x) {
            const int bit = __builtin_ctzll(x);
            x &= x - 1;
            const std::uint64_t low = lowBits(bit);
            const std::uint32_t tw =
                a_vals[ra + static_cast<std::uint32_t>(
                                __builtin_popcountll(aw & low))];
            const std::int32_t weight =
                b_vals[rb + static_cast<std::uint32_t>(
                                __builtin_popcountll(bw & low))];
            p += weight;
            ++accs;
            const std::uint32_t zeros = ~tw & all_ones;
            corrs += static_cast<std::uint64_t>(
                __builtin_popcount(zeros));
            const __m512i wv = _mm512_set1_epi64(weight);
            acc_lo = _mm512_mask_add_epi64(
                acc_lo, static_cast<__mmask8>(zeros & 0xff), acc_lo,
                wv);
            acc_hi = _mm512_mask_add_epi64(
                acc_hi, static_cast<__mmask8>(zeros >> 8), acc_hi, wv);
            ++matches;
        }
    }
    alignas(64) std::int64_t lanes[16];
    _mm512_storeu_si512(lanes, acc_lo);
    _mm512_storeu_si512(lanes + 8, acc_hi);
    for (int t = 0; t < timesteps; ++t)
        correction[t] = lanes[t];
    *pseudo += p;
    *acc_ops += accs;
    *correction_ops += corrs;
    return matches;
}

#endif // LOAS_KERNELS_X86

constexpr KernelOps kScalarOps = {scalarAndPopcountWords,
                                  scalarFirstMatchWord,
                                  scalarFusedFanoutJoin,
                                  scalarFusedCollapseJoin};
#if LOAS_KERNELS_X86
constexpr KernelOps kAvx2Ops = {avx2AndPopcountWords,
                                avx2FirstMatchWord,
                                avx2FusedFanoutJoin,
                                avx2FusedCollapseJoin};
constexpr KernelOps kAvx512Ops = {avx512AndPopcountWords,
                                  avx512FirstMatchWord,
                                  avx512FusedFanoutJoin,
                                  avx512FusedCollapseJoin};
#endif

const KernelOps&
opsFor(Isa isa)
{
#if LOAS_KERNELS_X86
    if (isa == Isa::Avx512)
        return kAvx512Ops;
    if (isa == Isa::Avx2)
        return kAvx2Ops;
#endif
    (void)isa;
    return kScalarOps;
}

/** The mutable dispatch state: resolved lazily, overridable. */
struct Dispatch
{
    Isa isa;
    const KernelOps* table;
};

Dispatch&
dispatch()
{
    static Dispatch d = [] {
        Isa isa = bestSupportedIsa();
        if (const char* env = std::getenv("LOAS_ISA");
            env != nullptr && *env != '\0') {
            Isa requested;
            if (!parseIsa(env, &requested))
                fatal("LOAS_ISA: unknown ISA '%s' (want scalar, avx2 "
                      "or avx512)",
                      env);
            if (!isaSupported(requested))
                fatal("LOAS_ISA: this CPU does not support '%s'", env);
            isa = requested;
        }
        return Dispatch{isa, &opsFor(isa)};
    }();
    return d;
}

} // namespace

const char*
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Avx2:
        return "avx2";
    case Isa::Avx512:
        return "avx512";
    }
    return "unknown";
}

bool
isaSupported(Isa isa)
{
    if (isa == Isa::Scalar)
        return true;
#if LOAS_KERNELS_X86
    if (isa == Isa::Avx2)
        return __builtin_cpu_supports("avx2") != 0 &&
               __builtin_cpu_supports("popcnt") != 0;
    if (isa == Isa::Avx512)
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512bw") != 0 &&
               __builtin_cpu_supports("avx512vpopcntdq") != 0;
#endif
    return false;
}

Isa
bestSupportedIsa()
{
    if (isaSupported(Isa::Avx512))
        return Isa::Avx512;
    if (isaSupported(Isa::Avx2))
        return Isa::Avx2;
    return Isa::Scalar;
}

Isa
resolvedIsa()
{
    return dispatch().isa;
}

void
setIsa(Isa isa)
{
    if (!isaSupported(isa))
        fatal("--isa: this CPU does not support '%s'", isaName(isa));
    Dispatch& d = dispatch();
    d.isa = isa;
    d.table = &opsFor(isa);
}

bool
parseIsa(const std::string& name, Isa* out)
{
    if (name == "scalar")
        *out = Isa::Scalar;
    else if (name == "avx2")
        *out = Isa::Avx2;
    else if (name == "avx512")
        *out = Isa::Avx512;
    else
        return false;
    return true;
}

const KernelOps&
ops()
{
    return *dispatch().table;
}

} // namespace kernels
} // namespace loas
