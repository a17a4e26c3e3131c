/**
 * @file
 * Cluster-wide PVFS namespace state.
 *
 * The metadata manager owns this; it maps file names to handles and
 * tracks sizes.  File *content* is virtual (the experiments run over
 * ramfs, so only sizes and striping matter), but sizes are kept
 * consistent across concurrent writers the way the real manager's
 * metadata does.
 */

#ifndef IOAT_PVFS_FS_STATE_HH
#define IOAT_PVFS_FS_STATE_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "simcore/assert.hh"

namespace ioat::pvfs {

/** Opaque file handle (index into the file table). */
using FileHandle = std::uint64_t;

inline constexpr FileHandle kInvalidHandle = ~FileHandle{0};

/**
 * Name of the file with name key @p key ("f<key>"): Create and Lookup
 * requests carry the key, the manager's table stores this name.
 */
inline std::string
fileName(std::uint64_t key)
{
    // Not "f" + std::to_string(key): GCC 12 reports a false
    // -Wrestrict overlap in that operator+ at -O3.
    std::string name = std::to_string(key);
    name.insert(name.begin(), 'f');
    return name;
}

/** Per-file metadata. */
struct FileMeta
{
    std::string name;
    std::uint64_t size = 0;
};

/**
 * The manager's file table.
 */
class FsState
{
  public:
    /** Create a file (or return the existing handle). */
    FileHandle
    create(const std::string &name)
    {
        auto it = byName_.find(name);
        if (it != byName_.end())
            return it->second;
        const FileHandle h = files_.size();
        files_.push_back(FileMeta{name, 0});
        byName_[name] = h;
        return h;
    }

    /** Look up by name. @return handle or kInvalidHandle. */
    FileHandle
    lookup(const std::string &name) const
    {
        auto it = byName_.find(name);
        return it == byName_.end() ? kInvalidHandle : it->second;
    }

    bool valid(FileHandle h) const { return h < files_.size(); }

    std::uint64_t
    size(FileHandle h) const
    {
        sim::simAssert(valid(h), "bad file handle");
        return files_[h].size;
    }

    const std::string &
    name(FileHandle h) const
    {
        sim::simAssert(valid(h), "bad file handle");
        return files_[h].name;
    }

    /** Writers extend the file (manager metadata update). */
    void
    extendTo(FileHandle h, std::uint64_t end_offset)
    {
        sim::simAssert(valid(h), "bad file handle");
        files_[h].size = std::max(files_[h].size, end_offset);
    }

    /** Truncate (metadata op; Fig. 2b's manager duties). */
    void
    truncate(FileHandle h, std::uint64_t new_size)
    {
        sim::simAssert(valid(h), "bad file handle");
        files_[h].size = new_size;
    }

    std::size_t fileCount() const { return files_.size(); }

  private:
    std::vector<FileMeta> files_;
    std::unordered_map<std::string, FileHandle> byName_;
};

} // namespace ioat::pvfs

#endif // IOAT_PVFS_FS_STATE_HH
