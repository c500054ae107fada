#pragma once
/// \file tempdir.hpp
/// Fresh private directory for a launch's ring segments and heartbeat
/// monitor socket, honoring TMPDIR (fallback /tmp) like mkstemp-based
/// tooling does. Callers on exotic TMPDIRs should keep it short:
/// Unix-domain socket paths are capped at sizeof(sockaddr_un::sun_path)
/// (~108 bytes), and the bind fails with a named error if
/// DIR/monitor.sock exceeds it.

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "transport/communicator.hpp"

namespace slipflow::transport {

/// mkdtemp($TMPDIR/slipflow.XXXXXX); throws comm_error on failure.
inline std::string make_socket_temp_dir() {
  const char* base = std::getenv("TMPDIR");
  std::string tmpl = (base != nullptr && base[0] != '\0') ? base : "/tmp";
  while (tmpl.size() > 1 && tmpl.back() == '/') tmpl.pop_back();
  tmpl += "/slipflow.XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr)
    throw comm_error("mkdtemp(" + tmpl + "): " + std::strerror(errno));
  return std::string(buf.data());
}

}  // namespace slipflow::transport
