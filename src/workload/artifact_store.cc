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

constexpr char kMagic[8] = {'L', 'O', 'A', 'S', 'A', 'R', 'T', '\0'};
constexpr std::size_t kHeaderBytes =
    sizeof(kMagic) + sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);

/** A not-yet-renamed writer temp: "<hash>.loasart.tmp.<pid>.<n>". */
bool
isTempFile(const fs::path& path)
{
    return path.filename().string().find(
               std::string(ArtifactStore::kFileSuffix) + ".tmp.") !=
           std::string::npos;
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

} // namespace

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

std::string
ArtifactStore::path(const std::string& key) const
{
    // Keys contain '#', '?', '&' and other shell-hostile characters;
    // the filename is a hash, the key itself is validated from the
    // payload on load (collisions read as rejections, not wrong data).
    char name[32];
    std::snprintf(name, sizeof(name), "%016llx",
                  static_cast<unsigned long long>(
                      artio::fnv1a(key.data(), key.size())));
    return (fs::path(dir_) / (std::string(name) + kFileSuffix))
        .string();
}

ArtifactStore::LoadResult
ArtifactStore::load(const std::string& key) const
{
    LoadResult result;
    const int fd = ::open(path(key).c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return result; // plain miss: nothing stored yet

    const auto reject = [&result] {
        result.rejected = true;
        return result;
    };
    // One fstat-sized read into an uninitialized buffer, which the
    // checks and the deserializer then work on in place. The file
    // exists, so an injected read fault is an EIO mid-read: like a
    // failed or short read, an I/O error that rejects the file.
    struct stat st{};
    std::size_t size = 0;
    std::unique_ptr<char[]> blob;
    bool read_ok = false;
    if (!fault::shouldFail(fault::Site::DiskRead) &&
        ::fstat(fd, &st) == 0) {
        size = static_cast<std::size_t>(st.st_size);
        blob.reset(new char[size]);
        read_ok = ::read(fd, blob.get(), size) ==
                  static_cast<ssize_t>(size);
    }
    ::close(fd);
    if (!read_ok) {
        result.io_error = true;
        return reject();
    }
    const char* const data = blob.get();
    if (size < kHeaderBytes)
        return reject();
    if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
        return reject();

    std::uint32_t version = 0;
    std::uint64_t checksum = 0, payload_size = 0;
    std::size_t pos = sizeof(kMagic);
    std::memcpy(&version, data + pos, sizeof(version));
    pos += sizeof(version);
    std::memcpy(&checksum, data + pos, sizeof(checksum));
    pos += sizeof(checksum);
    std::memcpy(&payload_size, data + pos, sizeof(payload_size));
    pos += sizeof(payload_size);

    if (version != kFormatVersion)
        return reject();
    if (payload_size != size - kHeaderBytes)
        return reject();
    if (artio::fnv1aWords(data + pos, payload_size) != checksum)
        return reject();

    artio::Reader reader(data + pos,
                         static_cast<std::size_t>(payload_size));
    std::string stored_key;
    if (!reader.str(stored_key) || stored_key != key)
        return reject();
    auto layer = std::make_shared<CompiledLayer>();
    if (!artio::deserializeCompiledLayer(reader, *layer))
        return reject();
    result.layer = std::move(layer);
    return result;
}

bool
ArtifactStore::store(const std::string& key,
                     const CompiledLayer& layer) const
{
    artio::Writer payload;
    payload.str(key);
    if (!artio::serializeCompiledLayer(layer, payload))
        return false;

    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        return false;

    const std::string body = payload.take();
    std::string blob(kMagic, sizeof(kMagic));
    const std::uint32_t version = kFormatVersion;
    const std::uint64_t checksum =
        artio::fnv1aWords(body.data(), body.size());
    const std::uint64_t payload_size = body.size();
    blob.append(reinterpret_cast<const char*>(&version),
                sizeof(version));
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
    const std::string final_path = path(key);
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
        if (entry.path().extension() != kFileSuffix)
            continue;
        // A file may vanish between iteration and stat (concurrent
        // clear/rename); skip it rather than summing the error value.
        const std::uintmax_t size = entry.file_size(ec);
        if (ec) {
            ec.clear();
            continue;
        }
        ++stats.files;
        stats.bytes += size;
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
        if (entry.path().extension() != kFileSuffix &&
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
