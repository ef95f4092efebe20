#include "fabric/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "util/error.h"

namespace phast::fabric {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  Require(epoll_fd_ >= 0,
          std::string("epoll_create1 failed: ") + std::strerror(errno));
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const std::string err = std::strerror(errno);
    ::close(epoll_fd_);
    epoll_fd_ = -1;
    Require(false, "eventfd failed: " + err);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  Require(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0,
          std::string("epoll_ctl(wake) failed: ") + std::strerror(errno));
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::Add(int fd, uint32_t events, FdHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  Require(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
          std::string("epoll_ctl(add) failed: ") + std::strerror(errno));
  handlers_[fd] = std::make_shared<FdHandler>(std::move(handler));
}

void EventLoop::Modify(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  Require(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0,
          std::string("epoll_ctl(mod) failed: ") + std::strerror(errno));
}

void EventLoop::Remove(int fd) {
  // The fd may already be gone (closed peer); EBADF/ENOENT are benign here.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::Wake() {
  const uint64_t one = 1;
  // A full eventfd counter still wakes the loop; short writes impossible.
  [[maybe_unused]] const ssize_t w = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::Stop() {
  stopped_.store(true, std::memory_order_release);
  Wake();
}

void EventLoop::Run() {
  epoll_event events[64];
  while (!stopped_.load(std::memory_order_acquire)) {
    if (handlers_.empty()) return;  // nothing can ever become ready
    // Bounded wait so an external stop flag flipped between epoll_wait
    // calls (signal delivered while dispatching) is noticed within half a
    // second even though its EINTR was consumed elsewhere.
    const int n = ::epoll_wait(epoll_fd_, events, 64, /*timeout_ms=*/500);
    if (n == 0) {
      if (wake_handler_) wake_handler_();
      continue;
    }
    if (n < 0) {
      if (errno == EINTR) {
        // A signal interrupted the wait (e.g. SIGTERM): give the wake
        // handler a chance to notice an external stop flag.
        if (wake_handler_) wake_handler_();
        continue;
      }
      Require(false, std::string("epoll_wait failed: ") + std::strerror(errno));
    }
    for (int i = 0; i < n; ++i) {
      if (stopped_.load(std::memory_order_acquire)) return;
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t count = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &count, sizeof(count));
        if (wake_handler_) wake_handler_();
        continue;
      }
      // Re-resolve per event: an earlier handler in this batch may have
      // removed this fd (e.g. closed a connection the router shed). The
      // local reference keeps a handler that removes itself alive until it
      // returns.
      const auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      const std::shared_ptr<FdHandler> handler = it->second;
      (*handler)(events[i].events);
    }
  }
}

}  // namespace phast::fabric
