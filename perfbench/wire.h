// A pipelined wire connection for the open-loop generator: the sender
// thread writes request frames without waiting, and one receiver
// thread per connection reads the responses, which the server returns
// in request order, and hands each to a callback with its op index.

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "net/client.h"
#include "net/protocol.h"
#include "util/status.h"

namespace perfbench {

using Frame = distperm::util::Result<
    std::pair<distperm::net::MessageType, std::string>>;

class PipelinedConnection {
 public:
  using OnFrame = std::function<void(size_t op, Frame frame)>;

  /// Connects to 127.0.0.1:`port` and starts the receiver thread.  A
  /// response that takes longer than `recv_timeout_ms` fails its op.
  static distperm::util::Result<std::unique_ptr<PipelinedConnection>>
  Connect(uint16_t port, OnFrame on_frame, int recv_timeout_ms = 20000) {
    distperm::net::Client::Options options;
    options.recv_timeout_ms = recv_timeout_ms;
    options.send_timeout_ms = recv_timeout_ms;
    auto client = distperm::net::Client::Connect("127.0.0.1", port, options);
    if (!client.ok()) return client.status();
    return std::unique_ptr<PipelinedConnection>(new PipelinedConnection(
        std::move(client).value(), std::move(on_frame)));
  }

  ~PipelinedConnection() { Finish(); }
  PipelinedConnection(const PipelinedConnection&) = delete;
  PipelinedConnection& operator=(const PipelinedConnection&) = delete;

  /// Registers `op` as outstanding and writes its encoded frame.
  void Send(size_t op, const std::string& frame) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      pending_.push_back(op);
    }
    cv_.notify_one();
    if (!client_->SendRaw(frame).ok()) {
      std::lock_guard<std::mutex> lock(mutex_);
      broken_ = true;
    }
  }

  /// Ops written whose responses have not been handed out yet.
  size_t outstanding() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pending_.size();
  }

  /// No more sends: waits until every outstanding op got its response
  /// (or failed) and joins the receiver.  Idempotent.
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      finishing_ = true;
    }
    cv_.notify_one();
    if (receiver_.joinable()) receiver_.join();
  }

 private:
  PipelinedConnection(std::unique_ptr<distperm::net::Client> client,
                      OnFrame on_frame)
      : client_(std::move(client)), on_frame_(std::move(on_frame)) {
    receiver_ = std::thread([this]() { ReceiveLoop(); });
  }

  void ReceiveLoop() {
    for (;;) {
      size_t op = 0;
      bool broken = false;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this]() { return !pending_.empty() || finishing_; });
        if (pending_.empty()) return;
        op = pending_.front();
        broken = broken_;
      }
      Frame frame = broken ? Frame(distperm::util::Status::IoError(
                                 "perfbench: connection broken"))
                           : client_->ReadFrame();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        pending_.pop_front();
        if (!frame.ok()) broken_ = true;
      }
      on_frame_(op, std::move(frame));
    }
  }

  std::unique_ptr<distperm::net::Client> client_;
  OnFrame on_frame_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<size_t> pending_;
  bool finishing_ = false;
  bool broken_ = false;
  std::thread receiver_;  // last: starts after every member it uses
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
