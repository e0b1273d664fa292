#include "workload/artifact_store.hh"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <system_error>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault.hh"
#include "workload/artifact_io.hh"

namespace loas {

namespace fs = std::filesystem;

namespace {

/** What tells the two file kinds apart on disk. */
struct FileKind
{
    char magic[8];
    /** Records stamp kResultVersion after kFormatVersion. */
    bool result_version;

    std::size_t
    headerBytes() const
    {
        return sizeof(magic) +
               (result_version ? 2 : 1) * sizeof(std::uint32_t) +
               2 * sizeof(std::uint64_t);
    }
};

constexpr FileKind kArtifact{{'L', 'O', 'A', 'S', 'A', 'R', 'T', '\0'},
                             false};
constexpr FileKind kRecord{{'L', 'O', 'A', 'S', 'R', 'E', 'S', '\0'},
                           true};

/** A not-yet-renamed writer temp: "<hash><suffix>.tmp.<pid>.<n>". */
bool
isTempFile(const fs::path& path)
{
    const std::string name = path.filename().string();
    for (const char* suffix :
         {ArtifactStore::kFileSuffix, ArtifactStore::kRecordSuffix})
        if (name.find(std::string(suffix) + ".tmp.") != std::string::npos)
            return true;
    return false;
}

/** `dir`/<16-hex FNV-1a of `name`><suffix>. Keys and specs contain
 *  '#', '?', '&' and other shell-hostile characters; the filename is a
 *  hash, and the payload names what it stores, so collisions read as
 *  rejections, not wrong data. */
std::string
hashedPath(const std::string& dir, const std::string& name,
           const char* suffix)
{
    char hex[32];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(
                      artio::fnv1a(name.data(), name.size())));
    return (fs::path(dir) / (std::string(hex) + suffix)).string();
}

/** write() the whole buffer, riding out EINTR and short writes; a
 *  short write with no errno (ENOSPC reporting as a partial count)
 *  simply continues and fails on the next call's -1. */
bool
writeAllFd(int fd, const char* data, std::size_t size)
{
    std::size_t off = 0;
    while (off < size) {
        const ssize_t n = ::write(fd, data + off, size - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** A whole file read into one buffer, its payload past the header. */
struct Payload
{
    std::unique_ptr<char[]> blob;
    const char* data = nullptr;
    std::size_t size = 0;
};

/**
 * Read the `kind` file at `path` and validate its header: magic,
 * versions, size and checksum. On success `payload` spans the
 * checksummed payload; otherwise false, with `result` marking a
 * rejection (an I/O error or bad data) — or nothing, when no file
 * exists (a plain miss).
 */
bool
readPayload(const std::string& path, const FileKind& kind,
            Payload& payload, ArtifactStore::LoadResult& result)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false; // plain miss: nothing stored yet

    // One fstat-sized read into an uninitialized buffer, which the
    // checks and the deserializer then work on in place. The file
    // exists, so an injected read fault is an EIO mid-read: like a
    // failed or short read, an I/O error that rejects the file.
    struct stat st{};
    std::size_t size = 0;
    bool read_ok = false;
    if (!fault::shouldFail(fault::Site::DiskRead) &&
        ::fstat(fd, &st) == 0) {
        size = static_cast<std::size_t>(st.st_size);
        payload.blob.reset(new char[size]);
        read_ok = ::read(fd, payload.blob.get(), size) ==
                  static_cast<ssize_t>(size);
    }
    ::close(fd);
    result.rejected = true;
    if (!read_ok) {
        result.io_error = true;
        return false;
    }
    const char* const data = payload.blob.get();
    if (size < kind.headerBytes() ||
        std::memcmp(data, kind.magic, sizeof(kind.magic)) != 0)
        return false;

    std::uint32_t version = 0, result_version = 0;
    std::uint64_t checksum = 0, payload_size = 0;
    std::size_t pos = sizeof(kind.magic);
    std::memcpy(&version, data + pos, sizeof(version));
    pos += sizeof(version);
    if (kind.result_version) {
        std::memcpy(&result_version, data + pos, sizeof(result_version));
        pos += sizeof(result_version);
    }
    std::memcpy(&checksum, data + pos, sizeof(checksum));
    pos += sizeof(checksum);
    std::memcpy(&payload_size, data + pos, sizeof(payload_size));
    pos += sizeof(payload_size);

    if (version != ArtifactStore::kFormatVersion ||
        (kind.result_version &&
         result_version != ArtifactStore::kResultVersion))
        return false;
    if (payload_size != size - pos ||
        artio::fnv1aWords(data + pos, payload_size) != checksum)
        return false;
    result.rejected = false;
    payload.data = data + pos;
    payload.size = static_cast<std::size_t>(payload_size);
    return true;
}

/** Prefix `body` with `kind`'s header and publish it at `final_path`
 *  (creating `dir` on first use). */
bool
writeFile(const std::string& dir, const std::string& final_path,
          const FileKind& kind, const std::string& body)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        return false;

    std::string blob(kind.magic, sizeof(kind.magic));
    const std::uint32_t versions[] = {ArtifactStore::kFormatVersion,
                                      ArtifactStore::kResultVersion};
    blob.append(reinterpret_cast<const char*>(versions),
                (kind.result_version ? 2 : 1) * sizeof(versions[0]));
    const std::uint64_t checksum =
        artio::fnv1aWords(body.data(), body.size());
    const std::uint64_t payload_size = body.size();
    blob.append(reinterpret_cast<const char*>(&checksum),
                sizeof(checksum));
    blob.append(reinterpret_cast<const char*>(&payload_size),
                sizeof(payload_size));
    blob += body;

    // Unique temporary, fsync, atomic rename: readers and concurrent
    // writers only ever see complete files, the last writer wins, and
    // a crash at any point can publish the old file or nothing — never
    // a torn one. Raw fds instead of ofstream because fsync needs one,
    // and because ENOSPC/short writes must be caught on *every* step:
    // write, fsync and close can each be the first to report them.
    static std::atomic<std::uint64_t> write_counter{0};
    const std::string tmp_path =
        final_path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(write_counter.fetch_add(1));
    const int fd = ::open(tmp_path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0)
        return false;
    bool ok = !fault::shouldFail(fault::Site::DiskWrite) &&
              writeAllFd(fd, blob.data(), blob.size());
    ok = ok && ::fsync(fd) == 0;
    ok = (::close(fd) == 0) && ok;
    if (!ok) {
        fs::remove(tmp_path, ec);
        return false;
    }
    if (fault::shouldFail(fault::Site::DiskRename)) {
        fs::remove(tmp_path, ec);
        return false;
    }
    fs::rename(tmp_path, final_path, ec);
    if (ec) {
        fs::remove(tmp_path, ec);
        return false;
    }
    return true;
}

} // namespace

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

std::string
ArtifactStore::path(const std::string& key) const
{
    return hashedPath(dir_, key, kFileSuffix);
}

std::string
ArtifactStore::recordPath(const std::string& key,
                          const std::string& spec) const
{
    return hashedPath(dir_, key + '\n' + spec, kRecordSuffix);
}

ArtifactStore::LoadResult
ArtifactStore::load(const std::string& key) const
{
    LoadResult result;
    Payload payload;
    if (!readPayload(path(key), kArtifact, payload, result))
        return result;
    artio::Reader reader(payload.data, payload.size);
    std::string stored_key;
    auto layer = std::make_shared<CompiledLayer>();
    if (!reader.str(stored_key) || stored_key != key ||
        !artio::deserializeCompiledLayer(reader, *layer))
        result.rejected = true;
    else
        result.layer = std::move(layer);
    return result;
}

bool
ArtifactStore::store(const std::string& key,
                     const CompiledLayer& layer) const
{
    artio::Writer payload;
    payload.str(key);
    return artio::serializeCompiledLayer(layer, payload) &&
           writeFile(dir_, path(key), kArtifact, payload.take());
}

ArtifactStore::LoadResult
ArtifactStore::loadRecord(const std::string& key,
                          const std::string& spec) const
{
    LoadResult result;
    Payload payload;
    if (!readPayload(recordPath(key, spec), kRecord, payload, result))
        return result;
    artio::Reader reader(payload.data, payload.size);
    std::string stored_key, stored_spec;
    auto results = std::make_shared<LayerResults>();
    if (!reader.str(stored_key) || stored_key != key ||
        !reader.str(stored_spec) || stored_spec != spec ||
        !artio::deserializeLayerResults(reader, *results))
        result.rejected = true;
    else
        result.results = std::move(results);
    return result;
}

bool
ArtifactStore::storeRecord(const std::string& key, const std::string& spec,
                           const LayerResults& results) const
{
    artio::Writer payload;
    payload.str(key);
    payload.str(spec);
    artio::serializeLayerResults(results, payload);
    return writeFile(dir_, recordPath(key, spec), kRecord, payload.take());
}

ArtifactStore::DiskStats
ArtifactStore::stats() const
{
    DiskStats stats;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        if (isTempFile(entry.path())) {
            ++stats.tmp_files;
            continue;
        }
        const fs::path suffix = entry.path().extension();
        const bool record = suffix == kRecordSuffix;
        if (!record && suffix != kFileSuffix)
            continue;
        // A file may vanish between iteration and stat (concurrent
        // clear/rename); skip it rather than summing the error value.
        const std::uintmax_t size = entry.file_size(ec);
        if (ec) {
            ec.clear();
            continue;
        }
        ++(record ? stats.records : stats.files);
        (record ? stats.record_bytes : stats.bytes) += size;
    }
    return stats;
}

std::size_t
ArtifactStore::clear() const
{
    std::size_t removed = 0;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        const fs::path suffix = entry.path().extension();
        if (suffix != kFileSuffix && suffix != kRecordSuffix &&
            !isTempFile(entry.path()))
            continue;
        if (fs::remove(entry.path(), ec))
            ++removed;
    }
    return removed;
}

std::size_t
ArtifactStore::sweepStaleTemps(double max_age_seconds) const
{
    std::size_t removed = 0;
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    const auto max_age = std::chrono::duration_cast<
        fs::file_time_type::duration>(
        std::chrono::duration<double>(max_age_seconds));
    for (const auto& entry : fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file(ec) || !isTempFile(entry.path()))
            continue;
        const auto mtime = entry.last_write_time(ec);
        if (ec) {
            ec.clear();
            continue;
        }
        if (now - mtime < max_age)
            continue;
        if (fs::remove(entry.path(), ec))
            ++removed;
    }
    return removed;
}

} // namespace loas
