/**
 * @file
 * Binary serialization of compiled-layer artifacts and layer results,
 * the payload formats of the on-disk cache level (artifact_store.hh).
 * Every format family (LoAS, SparTen-SNN, GoSPA, Gamma, systolic)
 * round-trips its full prepare() output — fibers, CSR views,
 * cumulative offset tables, and the RankedBitmask rank tables — so a
 * disk hit reconstructs exactly what a fresh compile would have
 * produced and execute() is byte-identical either way. Layer results
 * round-trip every RunResult field, so a replayed layer reduces to
 * the same report bytes as an executed one.
 *
 * The encoding is a flat little-ceremony stream of host-endian
 * fixed-width fields and length-prefixed arrays. It is a *cache*
 * format, not an interchange format: files are only ever read back by
 * the same build family on the same machine class, and the store's
 * format-version stamp plus checksum reject anything else.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "accel/compiled_layer.hh"
#include "accel/run_result.hh"

namespace loas {
namespace artio {

/** Append-only buffer of fixed-width fields and arrays. */
class Writer
{
  public:
    void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
    void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
    void i32(std::int32_t v) { raw(&v, sizeof(v)); }
    void f64(double v) { raw(&v, sizeof(v)); }

    void
    str(const std::string& s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }

    /** Length-prefixed array of trivially-copyable elements. */
    template <typename T>
    void
    vec(const std::vector<T>& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        u64(v.size());
        raw(v.data(), v.size() * sizeof(T));
    }

    std::string take() { return std::move(buf_); }

  private:
    void
    raw(const void* data, std::size_t size)
    {
        if (size != 0) // empty vectors hand out a null data()
            buf_.append(static_cast<const char*>(data), size);
    }

    std::string buf_;
};

/**
 * Bounds-checked reader over a serialized buffer. Every accessor
 * returns false once the stream is exhausted or malformed; callers
 * check ok() (or the accessor results) and treat failure as a cache
 * miss — never as an error to surface.
 */
class Reader
{
  public:
    Reader(const char* data, std::size_t size)
        : data_(data), size_(size)
    {}

    bool ok() const { return ok_; }

    /** Unconsumed bytes (a fully-parsed payload ends at zero). */
    std::size_t remaining() const { return ok_ ? size_ - pos_ : 0; }

    bool u32(std::uint32_t& v) { return raw(&v, sizeof(v)); }
    bool u64(std::uint64_t& v) { return raw(&v, sizeof(v)); }
    bool i32(std::int32_t& v) { return raw(&v, sizeof(v)); }
    bool f64(double& v) { return raw(&v, sizeof(v)); }

    bool
    str(std::string& s)
    {
        std::uint64_t size = 0;
        if (!u64(size) || size > remaining())
            return fail();
        s.assign(data_ + pos_, static_cast<std::size_t>(size));
        pos_ += static_cast<std::size_t>(size);
        return true;
    }

    template <typename T>
    bool
    vec(std::vector<T>& v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint64_t count = 0;
        if (!u64(count) || count > remaining() / sizeof(T))
            return fail();
        v.resize(static_cast<std::size_t>(count));
        return raw(v.data(), v.size() * sizeof(T));
    }

  private:
    bool
    raw(void* out, std::size_t size)
    {
        if (!ok_ || size > size_ - pos_)
            return fail();
        if (size != 0) // empty vectors hand out a null data()
            std::memcpy(out, data_ + pos_, size);
        pos_ += size;
        return true;
    }

    bool
    fail()
    {
        ok_ = false;
        return false;
    }

    const char* data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * Serialize a compiled layer (spec, shapes, family artifact) into
 * `out`. Returns false for an unknown family — the caller simply
 * skips the disk level for that artifact.
 */
bool serializeCompiledLayer(const CompiledLayer& layer, Writer& out);

/**
 * Reconstruct a compiled layer from `in`. Returns false on any
 * malformed or truncated payload (treated as a cache miss upstream).
 */
bool deserializeCompiledLayer(Reader& in, CompiledLayer& out);

/** Serialize one layer's per-input results, every RunResult field in
 *  declaration order (the payload of a result record). */
void serializeLayerResults(const LayerResults& results, Writer& out);

/**
 * Reconstruct layer results from `in`. Returns false on any malformed
 * or truncated payload, trailing bytes, or zero inputs.
 */
bool deserializeLayerResults(Reader& in, LayerResults& out);

/** FNV-1a 64-bit over bytes, the store's filename hash. */
std::uint64_t fnv1a(const char* data, std::size_t size,
                    std::uint64_t seed = 1469598103934665603ull);

/** The payload checksum: FNV-1a over 64-bit words, then the tail
 *  bytes. Each step is a bijection of the hash, so any single changed
 *  word or byte always changes it, at one multiply per word. */
std::uint64_t fnv1aWords(const char* data, std::size_t size);

} // namespace artio
} // namespace loas
