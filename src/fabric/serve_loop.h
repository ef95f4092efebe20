#pragma once

#include <csignal>
#include <cstddef>

#include "server/metrics.h"
#include "server/protocol.h"
#include "server/service.h"

namespace phast::fabric {

/// The async front end of phast_serve (DESIGN.md §12): one event-loop
/// thread multiplexes every connection with level-triggered epoll, replacing
/// the thread-per-connection accept loop. Requests pipeline freely — a
/// client may have any number of queries in flight on one connection — and
/// responses still go out in per-connection request order: each connection
/// keeps an ordered slot queue, a slot resolving out of order waits for the
/// head. Sweep completions (worker threads) signal the loop through the
/// OracleService Submit on_done hook + an eventfd, so the loop thread never
/// blocks on a future.
///
/// Write backpressure: when a connection's outbound buffer exceeds
/// max_outbound_bytes, the loop stops *reading* from that connection (drops
/// its EPOLLIN interest) until the buffer drains below the cap — a slow
/// reader throttles itself, not the process.
///
/// Control frames kMetrics/kUpdateWeights/kEpoch are answered inline on the
/// loop thread. kSwap never blocks the loop: its CustomizeAndSwap build
/// runs on a worker thread of its own, whose result sits in the
/// connection's ordered slot queue exactly as a query's future does, and
/// which wakes the loop once the new epoch is published. Until then every
/// other connection keeps being served under the current epoch, while the
/// swapping connection's later frames wait unread: each connection's
/// frames still act in the order they were sent, so an update sent after
/// a kSwap is not in its epoch and a kEpoch sent after it reports the new
/// epoch. That is what keeps replicas fed the same control stream on one
/// connection in agreement. The kSwap reply (the new epoch) leaves in
/// request order. Builds are serialized by the SnapshotManager. A build
/// that throws closes the connection after the replies that precede it.
/// Closing a connection never waits for its build; kShutdown stops the
/// loop only once every swap already dispatched has sent its reply.
struct FrontEndOptions {
  server::ConnectionOptions conn;
  /// Per-connection cap on buffered outbound bytes before reads pause.
  size_t max_outbound_bytes = 4u << 20;
};

/// Serves until a client sends kShutdown or `*stop_signal` becomes nonzero
/// (flip it from a signal handler, then Wake/Stop the loop — or rely on any
/// event to notice it). Owns the accepted connections; does not close or
/// unlink `listen_fd`. Returns true if a shutdown frame was received.
bool RunFrontEnd(int listen_fd, server::OracleService& service,
                 server::MetricsRegistry& metrics,
                 const FrontEndOptions& options,
                 const volatile std::sig_atomic_t* stop_signal);

}  // namespace phast::fabric
