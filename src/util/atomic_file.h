#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace phast {

/// Publishes the file at `path` in one step. `write` streams the contents
/// into a new temporary file in the same directory, which rename(2) then
/// moves over `path`. A process that has the old file open or mapped keeps
/// reading the old bytes (a MAP_SHARED mapping of a file truncated in place
/// would fault with SIGBUS instead), and a later open sees the whole new
/// file. There is no fsync: this keeps readers from seeing a half-written
/// file; it does not make the file survive a power loss. On any failure the
/// temporary is removed and InputError is thrown, leaving `path` untouched.
void WriteFileAtomically(const std::string& path,
                         const std::function<void(std::ostream&)>& write);

}  // namespace phast
