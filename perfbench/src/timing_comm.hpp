#pragma once
/// \file timing_comm.hpp
/// TimingComm — a forwarding transport::Communicator decorator. Every
/// call goes straight to the wrapped endpoint; on the way it counts
/// messages and payload bytes sent, and measures the time blocked in
/// recv / RecvHandle::wait and in collectives. Blocking waits and
/// collectives are also recorded as spans when the tracer is enabled.
/// Results are unchanged by construction: the decorator never touches a
/// payload (the transparency check in the slow_node_remap workload pins
/// this byte for byte).

#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "harness.hpp"
#include "transport/communicator.hpp"

namespace perfbench {

struct TimingCounts {
  long long messages = 0;
  long long bytes = 0;
  double wait_seconds = 0.0;        ///< blocked in recv / handle wait
  double collective_seconds = 0.0;  ///< barrier, allgather, allreduce
};

class TimingComm final : public slipflow::transport::Communicator {
 public:
  TimingComm(slipflow::transport::Communicator& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  const TimingCounts& counts() const { return counts_; }

  int rank() const override { return inner_.rank(); }
  int size() const override { return inner_.size(); }

  void send(int dest, int tag, std::span<const double> data) override {
    count(data);
    inner_.send(dest, tag, data);
  }
  void isend(int dest, int tag, std::span<const double> data) override {
    count(data);
    inner_.isend(dest, tag, data);
  }
  std::vector<double> recv(int src, int tag) override {
    return waited("transport.recv", [&] { return inner_.recv(src, tag); });
  }
  slipflow::transport::RecvHandlePtr irecv(int src, int tag) override {
    return std::make_unique<Handle>(*this, inner_.irecv(src, tag));
  }
  void barrier() override {
    collective("transport.barrier", [&] {
      inner_.barrier();
      return 0;
    });
  }
  std::vector<double> allgather(std::span<const double> mine) override {
    return collective("transport.allgather",
                      [&] { return inner_.allgather(mine); });
  }
  double allreduce_sum(double x) override {
    return collective("transport.allreduce",
                      [&] { return inner_.allreduce_sum(x); });
  }
  double allreduce_max(double x) override {
    return collective("transport.allreduce",
                      [&] { return inner_.allreduce_max(x); });
  }
  std::vector<double> allreduce_sum(std::span<const double> xs) override {
    return collective("transport.allreduce",
                      [&] { return inner_.allreduce_sum(xs); });
  }
  void note_progress(long long phase) override { inner_.note_progress(phase); }

 private:
  class Handle final : public slipflow::transport::RecvHandle {
   public:
    Handle(TimingComm& comm, slipflow::transport::RecvHandlePtr inner)
        : comm_(comm), inner_(std::move(inner)) {}
    bool test() override { return inner_->test(); }
    std::vector<double> wait() override {
      return comm_.waited("transport.wait", [&] { return inner_->wait(); });
    }

   private:
    TimingComm& comm_;
    slipflow::transport::RecvHandlePtr inner_;
  };

  void count(std::span<const double> data) {
    ++counts_.messages;
    counts_.bytes += static_cast<long long>(data.size_bytes());
  }
  template <class F>
  std::invoke_result_t<F&> waited(const char* name, F&& f) {
    const double t0 = now_s();
    auto out = f();
    const double t1 = now_s();
    counts_.wait_seconds += t1 - t0;
    tracer_.record(name, t0, t1, 0, -1, inner_.rank());
    return out;
  }
  template <class F>
  std::invoke_result_t<F&> collective(const char* name, F&& f) {
    const double t0 = now_s();
    auto out = f();
    const double t1 = now_s();
    counts_.collective_seconds += t1 - t0;
    tracer_.record(name, t0, t1, 0, -1, inner_.rank());
    return out;
  }

  slipflow::transport::Communicator& inner_;
  Tracer& tracer_;
  TimingCounts counts_;
};

}  // namespace perfbench
