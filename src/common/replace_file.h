#ifndef HCD_COMMON_REPLACE_FILE_H_
#define HCD_COMMON_REPLACE_FILE_H_

#include <cstdio>
#include <functional>
#include <string>

#include "common/status.h"

namespace hcd {

/// Writes a whole file through `write`, which gets the open stream and
/// returns false when one of its writes failed. Every write, the flush and
/// the close are checked, so a full disk is an IoError, never an Ok status
/// over a truncated file. No fsync: durability across power loss is not
/// promised.
///
/// A regular file at `path` (or none) is replaced atomically: the bytes go
/// to `<path>.tmp.<pid>`, which is renamed over `path` once written and
/// closed. A process that has the old file mapped keeps its own unchanged
/// inode, where truncating in place would change validated bytes under its
/// mapping (and cut away pages past the end of a smaller new file). A failed
/// save removes the temporary file and leaves `path` as it was. A symlink
/// to a regular file is replaced by the new file, not written through. A
/// device, a FIFO or a socket at `path` is written in place: renaming over
/// it would replace the node itself.
Status ReplaceFile(const std::string& path,
                   const std::function<bool(std::FILE*)>& write);

}  // namespace hcd

#endif  // HCD_COMMON_REPLACE_FILE_H_
