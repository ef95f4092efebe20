#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

namespace phast::fabric {

/// A minimal level-triggered epoll loop (DESIGN.md §12): the async front
/// end of phast_serve and phast_router. One thread runs Run(); fd handlers
/// fire on readiness; other threads (service workers completing futures)
/// call Wake() — an eventfd write — to have the wake handler run on the
/// loop thread. Level-triggered semantics keep the handlers simple: a
/// handler that does not drain an fd is simply called again.
class EventLoop {
 public:
  using FdHandler = std::function<void(uint32_t epoll_events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT bits). The handler runs
  /// on the loop thread. Loop-thread only.
  void Add(int fd, uint32_t events, FdHandler handler);
  /// Changes the interest set (e.g. pausing EPOLLIN for backpressure,
  /// enabling EPOLLOUT while an outbound buffer drains). Loop-thread only.
  void Modify(int fd, uint32_t events);
  /// Deregisters; the fd itself stays open (the owner closes it).
  /// Loop-thread only, but safe from within any handler — including the
  /// handler of `fd` itself: dispatch holds a reference to the running
  /// handler, so its captures stay alive until it returns, and later events
  /// of the same epoll batch are looked up afresh and skipped.
  void Remove(int fd);

  /// Handler for Wake() ticks, run on the loop thread with the eventfd
  /// already drained.
  void OnWake(std::function<void()> handler) { wake_handler_ = std::move(handler); }

  /// Thread-safe: schedules a wake handler run on the loop thread.
  void Wake();

  /// Dispatches until Stop(). Also returns if no fds remain registered
  /// (nothing could ever become ready again).
  void Run();
  /// Thread-safe (wakes the loop if it is blocking in epoll_wait).
  void Stop();

 private:
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stopped_{false};
  std::function<void()> wake_handler_;
  std::unordered_map<int, std::shared_ptr<FdHandler>> handlers_;
};

}  // namespace phast::fabric
