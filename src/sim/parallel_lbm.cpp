#include "sim/parallel_lbm.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "lbm/checkpoint.hpp"
#include "lbm/observables.hpp"
#include "lbm/stepper.hpp"
#include "lbm/vtk.hpp"
#include "obs/async_writer.hpp"

namespace slipflow::sim {

namespace {
// Tags of the runner's protocol. Rightward = toward higher rank.
constexpr int kTagFRight = 10;
constexpr int kTagFLeft = 11;
constexpr int kTagNRight = 12;
constexpr int kTagNLeft = 13;
constexpr int kTagInfo = 20;
constexpr int kTagProposal = 21;
constexpr int kTagPlanes = 22;
constexpr int kTagProfile = 23;

/// Wire bytes of one halo exchange: one message per direction (left and
/// right), sizeof(double) bytes per payload double.
constexpr double kHaloMessagesPerExchange = 2.0;
double halo_exchange_bytes(lbm::index_t doubles_per_message) {
  return kHaloMessagesPerExchange * static_cast<double>(sizeof(double)) *
         static_cast<double>(doubles_per_message);
}
}  // namespace

std::pair<lbm::index_t, lbm::index_t> initial_extent(lbm::index_t planes_total,
                                                     int size, int rank) {
  SLIPFLOW_REQUIRE(size >= 1 && rank >= 0 && rank < size);
  SLIPFLOW_REQUIRE(planes_total >= size);
  const lbm::index_t base = planes_total / size;
  const lbm::index_t rem = planes_total % size;
  const lbm::index_t mine = base + (rank < rem ? 1 : 0);
  const lbm::index_t begin =
      static_cast<lbm::index_t>(rank) * base + std::min<lbm::index_t>(rank, rem);
  return {begin, mine};
}

/// Halo exchange over the periodic ring of ranks, split into a
/// nonblocking post half (irecv + extract + isend, staged through two
/// persistent per-direction buffers — no per-step allocation and no
/// serialization of the two extractions through one scratch) and a
/// finish half (wait + insert). The blocking exchange_* overrides (used
/// by prime and refresh_observables) are the composition, so message
/// contents and the per-(src, tag) arrival order are the same on every
/// path and across all backends.
class ParallelLbm::RingExchanger final : public lbm::HaloExchanger {
 public:
  explicit RingExchanger(transport::Communicator& comm) : comm_(comm) {}

  void post_f(lbm::Slab& slab) {
    const auto n = static_cast<std::size_t>(slab.f_halo_doubles());
    from_left_ = comm_.irecv(left_peer(), kTagFRight);
    from_right_ = comm_.irecv(right_peer(), kTagFLeft);
    // my right-boundary populations travel rightward to my right peer
    right_buf_.resize(n);
    slab.extract_f_halo(lbm::Side::right, right_buf_);
    comm_.isend(right_peer(), kTagFRight, right_buf_);
    left_buf_.resize(n);
    slab.extract_f_halo(lbm::Side::left, left_buf_);
    comm_.isend(left_peer(), kTagFLeft, left_buf_);
  }

  void finish_f(lbm::Slab& slab) {
    slab.insert_f_halo(lbm::Side::left, from_left_->wait());
    slab.insert_f_halo(lbm::Side::right, from_right_->wait());
    from_left_.reset();
    from_right_.reset();
  }

  void post_density(lbm::Slab& slab) {
    const auto n = static_cast<std::size_t>(slab.density_halo_doubles());
    from_left_ = comm_.irecv(left_peer(), kTagNRight);
    from_right_ = comm_.irecv(right_peer(), kTagNLeft);
    right_buf_.resize(n);
    slab.extract_density_halo(lbm::Side::right, right_buf_);
    comm_.isend(right_peer(), kTagNRight, right_buf_);
    left_buf_.resize(n);
    slab.extract_density_halo(lbm::Side::left, left_buf_);
    comm_.isend(left_peer(), kTagNLeft, left_buf_);
  }

  void finish_density(lbm::Slab& slab) {
    slab.insert_density_halo(lbm::Side::left, from_left_->wait());
    slab.insert_density_halo(lbm::Side::right, from_right_->wait());
    from_left_.reset();
    from_right_.reset();
  }

  void exchange_f(lbm::Slab& slab) override {
    post_f(slab);
    finish_f(slab);
  }

  void exchange_density(lbm::Slab& slab) override {
    post_density(slab);
    finish_density(slab);
  }

 private:
  int left_peer() const {
    return (comm_.rank() + comm_.size() - 1) % comm_.size();
  }
  int right_peer() const { return (comm_.rank() + 1) % comm_.size(); }

  transport::Communicator& comm_;
  // Staging for the two directions' isends; every backend copies the
  // payload before isend returns, so reusing them next phase is safe.
  std::vector<double> right_buf_, left_buf_;
  transport::RecvHandlePtr from_left_, from_right_;
};

ParallelLbm::ParallelLbm(RunnerConfig cfg, transport::Communicator& comm)
    : cfg_(std::move(cfg)), comm_(comm) {
  SLIPFLOW_REQUIRE(cfg_.remap_interval >= 1);
  SLIPFLOW_REQUIRE(cfg_.threads >= 1);
  {
    auto geom = std::make_shared<lbm::ChannelGeometry>(
        cfg_.global, nullptr, cfg_.walls_y, cfg_.walls_z);
    for (int w = 0; w < 4; ++w) {
      const lbm::Vec3& u = cfg_.wall_velocity[static_cast<std::size_t>(w)];
      if (u.norm2() > 0.0)
        geom->set_wall_velocity(static_cast<lbm::ChannelGeometry::Wall>(w),
                                u);
    }
    geom_ = std::move(geom);
  }
  const auto [begin, mine] =
      initial_extent(cfg_.global.nx, comm_.size(), comm_.rank());
  slab_ = std::make_unique<lbm::Slab>(geom_, cfg_.fluid, begin, mine);
  halo_ = std::make_unique<RingExchanger>(comm_);
  policy_ = balance::RemapPolicy::create(cfg_.policy);
  balancer_ = std::make_unique<balance::NodeBalancer>(cfg_.balance, policy_);
  stats_.rank = comm_.rank();
  if (cfg_.metrics != nullptr)
    SLIPFLOW_REQUIRE_MSG(cfg_.metrics->ranks() >= comm_.size(),
                         "metrics registry needs one shard per rank");
  prof_ = std::make_unique<obs::PhaseProfiler>(
      cfg_.metrics, cfg_.metrics != nullptr ? comm_.rank() : 0,
      cfg_.clock_factory ? cfg_.clock_factory(comm_.rank()) : nullptr);
  if (!cfg_.slowdown.empty()) {
    SLIPFLOW_REQUIRE(cfg_.slowdown.size() ==
                     static_cast<std::size_t>(comm_.size()));
    slowdown_factor_ = cfg_.slowdown[static_cast<std::size_t>(comm_.rank())];
    SLIPFLOW_REQUIRE(slowdown_factor_ >= 0.0);
  }
}

ParallelLbm::~ParallelLbm() = default;

void ParallelLbm::initialize(
    const std::function<double(std::size_t, lbm::index_t, lbm::index_t,
                               lbm::index_t)>& init_density) {
  slab_->initialize(init_density);
  lbm::prime(*slab_, *halo_);
  initialized_ = true;
}

void ParallelLbm::initialize_uniform() {
  slab_->initialize_uniform();
  lbm::prime(*slab_, *halo_);
  initialized_ = true;
}

void ParallelLbm::ensure_plan() {
  if (slab_->has_plan()) return;
  const double t0 = prof_->now();
  kernels_.bind(*slab_);  // builds the plan, and the tiles a backend needs
  prof_->record_span("plan", t0, prof_->now());
}

void ParallelLbm::run(int phases) {
  SLIPFLOW_REQUIRE_MSG(initialized_, "call initialize() before run()");
  // All timing below reads the injected clock through the profiler —
  // never util::Stopwatch — so the compute times that feed the load
  // predictor come from the same (possibly deterministic) source the
  // trace records.
  ensure_plan();
  if (pool_ == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(cfg_.threads);
    thread_cells_.assign(static_cast<std::size_t>(cfg_.threads), 0.0);
  }
  // A pure function of config and the phase index, so every rank takes
  // the same branches below and the collectives stay matched.
  const auto remaps_after = [this](int p) {
    return cfg_.policy != "none" && p % cfg_.remap_interval == 0;
  };
  for (int p = 1; p <= phases; ++p) {
    prof_->begin_phase(++phases_done_);
    comm_.note_progress(phases_done_);
    step();

    // --- lattice point remapping --- (lines 20-32)
    if (remaps_after(p)) {
      const double r0 = prof_->now();
      remap_step();
      const double r1 = prof_->now();
      // record_span folds the duration into the "time/remap" counter
      prof_->record_span("remap", r0, r1);
      prof_->add("remap_invocations", 1.0);
      stats_.remap_seconds += r1 - r0;
      // A migration rebuilt the slab and dropped its plan; rebuild it
      // under the "plan" span so the cost is visible but never mixed
      // into the remap numbers.
      ensure_plan();
    }

    // --- periodic output --- packs a snapshot and (by default) hands
    // it to the background writer; the phase never blocks on disk.
    if (cfg_.output.checkpoint_every > 0 || cfg_.output.vtk_every > 0)
      write_outputs();
  }
  flush_output();
  if (writer_ != nullptr) {
    // Cumulative writer counters, as gauges so repeated run() calls
    // overwrite instead of double-count.
    const obs::AsyncWriterStats ws = writer_->stats();
    prof_->set("time/io_async", ws.write_seconds);
    prof_->set("io/bytes_queued", static_cast<double>(ws.bytes_queued));
    prof_->set("io/bytes_written", static_cast<double>(ws.bytes_written));
    prof_->set("io/jobs_written", static_cast<double>(ws.jobs_written));
    prof_->set("io/submit_block_seconds", ws.submit_block_seconds);
  }
  stats_.planes = slab_->nx_local();
  prof_->set("planes_end", static_cast<double>(slab_->nx_local()));
  prof_->set("phases_done", static_cast<double>(phases_done_));
  if (stats_.compute_seconds > 0.0)
    prof_->set("mlups", cells_updated_ / stats_.compute_seconds / 1e6);
  // The efficiency of the overlap: of the time the phase had to cover
  // communication, the fraction spent computing (halo waits are the comm
  // that compute could not hide). Blocking mode hides nothing.
  const double window = interior_seconds_ + halo_wait_seconds_;
  if (window > 0.0)
    prof_->set("overlap_efficiency", interior_seconds_ / window);
  // Per-lane fold of the threaded sweeps, published from the owning
  // thread (lanes never touch the registry themselves).
  for (std::size_t lane = 0; lane < thread_cells_.size(); ++lane) {
    if (thread_cells_[lane] == 0.0) continue;
    prof_->add("thread/" + std::to_string(lane) + "/cells_updated",
               thread_cells_[lane]);
    thread_cells_[lane] = 0.0;
  }
  // A migration in the last phase left the mixture velocity zeroed;
  // rebuild it so the caller reads real profiles right after run().
  if (phases > 0 && remaps_after(phases)) refresh_observables();
}

void ParallelLbm::finish_phase(double phase_begin, double t, double compute) {
  if (slowdown_factor_ > 0.0) {
    // emulate a node that keeps only 1/(1+s) of its CPU
    const double extra = slowdown_factor_ * compute;
    std::this_thread::sleep_for(std::chrono::duration<double>(extra));
    prof_->record_span("slowdown", t, prof_->now());
    compute += extra;
  }
  stats_.compute_seconds += compute;
  prof_->add("time/compute", compute);
  prof_->observe("phase_seconds", prof_->now() - phase_begin);
  balancer_->record_phase(std::max(compute, 1e-9), slab_->owned_cells());

  const auto phase_cells = static_cast<double>(slab_->plan().fluid_cells());
  cells_updated_ += phase_cells;
  prof_->add("cells_updated", phase_cells);
}

void ParallelLbm::step() {
  lbm::Slab& slab = *slab_;
  lbm::PhaseKernels& k = kernels_;
  k.bind(slab);  // on this thread, before any piece runs on the pool
  const bool overlap = cfg_.step == StepMode::overlap;
  const double phase_begin = prof_->now();
  double t = phase_begin;
  double compute = 0.0, comm = 0.0, interior = 0.0, halo_wait = 0.0;
  // Runs one stage under its span and adds its duration to `total` and,
  // if given, to the sub-total `part`.
  const auto stage = [&](const char* name, double& total, double* part,
                         const auto& body) {
    const double t0 = t;
    body();
    t = prof_->now();
    prof_->record_span(name, t0, t);
    total += t - t0;
    if (part != nullptr) *part += t - t0;
  };
  const auto wait_f = [&] {
    stage("halo_wait_f", comm, &halo_wait, [&] { halo_->finish_f(slab); });
  };
  const auto wait_density = [&] {
    stage("halo_wait_density", comm, &halo_wait,
          [&] { halo_->finish_density(slab); });
  };

  // --- collide the exchange-facing planes --- (their post-collision
  // populations are the f-halo payload, so they must exist first)
  stage("collide", compute, nullptr,
        [&] { lbm::collide_boundary_planes(slab); });

  // --- post the f halos --- irecvs, then extract + isend both planes
  stage("halo_post_f", comm, nullptr, [&] { halo_->post_f(slab); });
  prof_->add("halo_bytes", halo_exchange_bytes(slab.f_halo_doubles()));
  if (!overlap) wait_f();

  // --- the collide+stream sweep, threaded, while frames fly --- every
  // stream cell (boundary ones included) reads owned state only and owns
  // a disjoint set of f_post slots; the exchanged planes enter the phase
  // through the finish pulls below, never here.
  stage("interior_stream", compute, &interior, [&] {
    pool_->run([&](int lane, int lanes) {
      thread_cells_[static_cast<std::size_t>(lane)] +=
          static_cast<double>(k.stream(lane, lanes));
    });
  });
  if (overlap) wait_f();

  // --- finish streaming (halo pulls, swap, solids) and the densities of
  // the exchange-facing planes — the payload of the second exchange
  stage("boundary_stream", compute, nullptr, [&] {
    k.finish_stream();
    k.edge_density();
  });

  // --- post the density halos ---
  stage("halo_post_density", comm, nullptr,
        [&] { halo_->post_density(slab); });
  prof_->add("halo_bytes", halo_exchange_bytes(slab.density_halo_doubles()));
  if (!overlap) wait_density();

  // --- the density -> psi -> force wavefront over the inner planes ---
  // the force cells of planes [2, nx_local-1] gather psi from owned
  // planes only, so the whole chain runs while the density halo is in
  // flight; the second run fills in the planes at the lanes' seams.
  stage("interior_force", compute, &interior, [&] {
    pool_->run([&](int lane, int lanes) { k.interior_force(lane, lanes); });
    pool_->run([&](int lane, int lanes) { k.seam_force(lane, lanes); });
  });
  if (overlap) wait_density();

  // --- halo psi + the edge force planes (1 and nx_local) ---
  stage("boundary_force", compute, nullptr, [&] { k.finish_force(); });

  stats_.comm_seconds += comm;
  prof_->add("time/comm", comm);
  if (overlap) {
    interior_seconds_ += interior;
    halo_wait_seconds_ += halo_wait;
    prof_->add("time/interior", interior);
    prof_->add("time/halo_wait", halo_wait);
  }
  finish_phase(phase_begin, t, compute);
}

void ParallelLbm::write_outputs() {
  const OutputOptions& out = cfg_.output;
  const bool ckpt =
      out.checkpoint_every > 0 && phases_done_ % out.checkpoint_every == 0;
  const bool vtk = out.vtk_every > 0 && phases_done_ % out.vtk_every == 0;
  if (!ckpt && !vtk) return;
  const double t0 = prof_->now();
  const std::string tag = std::to_string(phases_done_);
  if (ckpt) {
    const std::string path = out.checkpoint_prefix + "." + tag + ".ckpt";
    if (out.async)
      save_checkpoint_async(path, phases_done_);
    else
      save_checkpoint(path, phases_done_);
  }
  if (vtk) {
    const std::string path = out.vtk_prefix + "." + tag + ".r" +
                             std::to_string(comm_.rank()) + ".vtk";
    if (out.async) {
      if (writer_ == nullptr) writer_ = std::make_unique<obs::AsyncWriter>();
      writer_->submit_file(path, lbm::vtk_to_string(*slab_));
    } else {
      lbm::write_vtk(*slab_, path);
    }
  }
  prof_->record_span("io", t0, prof_->now());
}

void ParallelLbm::remap_step() {
  if (policy_->global())
    remap_global();
  else
    remap_local();
}

void ParallelLbm::send_planes(int peer, lbm::Side side, long long k) {
  const lbm::index_t pc = slab_->plane_cells();
  std::vector<double> msg(1 +
                          static_cast<std::size_t>(slab_->migration_doubles(k)));
  msg[0] = static_cast<double>(k);
  if (k > 0) {
    slab_->detach_planes(side, k, std::span<double>(msg).subspan(1));
    stats_.planes_sent += k;
    prof_->add("planes_sent", static_cast<double>(k));
    prof_->add("migration_bytes", 8.0 * static_cast<double>(msg.size()));
  }
  (void)pc;
  comm_.send(peer, kTagPlanes, msg);
}

void ParallelLbm::recv_planes(int peer, lbm::Side side) {
  const std::vector<double> msg = comm_.recv(peer, kTagPlanes);
  SLIPFLOW_REQUIRE(!msg.empty());
  const auto k = static_cast<long long>(msg[0]);
  if (k > 0) {
    slab_->attach_planes(side, k,
                         std::span<const double>(msg).subspan(1));
    stats_.planes_received += k;
    prof_->add("planes_received", static_cast<double>(k));
  }
}

void ParallelLbm::remap_local() {
  const lbm::index_t pc = slab_->plane_cells();
  const long long my_points = slab_->owned_cells();
  const bool ready = balancer_->ready();

  // 1. Exchange (points, predicted time, ready) with chain neighbors.
  const double info[3] = {
      static_cast<double>(my_points),
      ready ? balancer_->predicted_time(my_points) : 0.0,
      ready ? 1.0 : 0.0};
  const int ln = left_neighbor();
  const int rn = right_neighbor();
  if (ln >= 0) comm_.send(ln, kTagInfo, std::span<const double>(info, 3));
  if (rn >= 0) comm_.send(rn, kTagInfo, std::span<const double>(info, 3));
  std::optional<balance::NodeLoad> left, right;
  std::vector<double> linfo, rinfo;
  if (ln >= 0) {
    linfo = comm_.recv(ln, kTagInfo);
    if (linfo[2] != 0.0) left = balance::NodeLoad{linfo[0], linfo[1]};
  }
  if (rn >= 0) {
    rinfo = comm_.recv(rn, kTagInfo);
    if (rinfo[2] != 0.0) right = balance::NodeLoad{rinfo[0], rinfo[1]};
  }

  // 2. Local decision, then exchange proposals across each boundary.
  const balance::Proposal prop = balancer_->decide(left, my_points, right);
  if (ln >= 0) {
    const double v = static_cast<double>(prop.to_left);
    comm_.send(ln, kTagProposal, std::span<const double>(&v, 1));
  }
  if (rn >= 0) {
    const double v = static_cast<double>(prop.to_right);
    comm_.send(rn, kTagProposal, std::span<const double>(&v, 1));
  }
  long long left_to_me = 0, right_to_me = 0;
  if (ln >= 0)
    left_to_me = static_cast<long long>(comm_.recv(ln, kTagProposal)[0]);
  if (rn >= 0)
    right_to_me = static_cast<long long>(comm_.recv(rn, kTagProposal)[0]);

  // 3. Conflict resolution per boundary (both sides compute the same
  //    net), then donor-clamped plane transfers. The header carries the
  //    actual k, so clamping never needs cross-rank agreement.
  const long long min_t = cfg_.balance.min_transfer_points;
  const long long net_right =
      rn >= 0 ? balance::resolve_pair(prop.to_right, right_to_me, min_t) : 0;
  const long long net_left =
      ln >= 0 ? balance::resolve_pair(left_to_me, prop.to_left, min_t) : 0;
  // net_left > 0 means the left node ships to me (its rightward flow).

  // All sends first (buffered), then receives — deadlock-free.
  long long avail = slab_->nx_local();
  if (net_right > 0) {
    const long long k = balance::quantize_flow_to_planes(net_right, pc, avail);
    avail -= k;
    send_planes(rn, lbm::Side::right, k);
  }
  if (net_left < 0) {
    const long long k =
        std::llabs(balance::quantize_flow_to_planes(net_left, pc, avail));
    send_planes(ln, lbm::Side::left, k);
  }
  if (net_right < 0) recv_planes(rn, lbm::Side::right);
  if (net_left > 0) recv_planes(ln, lbm::Side::left);
}

void ParallelLbm::remap_global() {
  const lbm::index_t pc = slab_->plane_cells();
  const long long my_points = slab_->owned_cells();
  const bool ready = balancer_->ready();
  const double info[3] = {
      static_cast<double>(my_points),
      ready ? balancer_->predicted_time(my_points) : 0.0,
      ready ? 1.0 : 0.0};
  const std::vector<double> all =
      comm_.allgather(std::span<const double>(info, 3));

  const int n = comm_.size();
  std::vector<balance::NodeLoad> loads;
  std::vector<long long> current;
  loads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::size_t o = 3 * static_cast<std::size_t>(i);
    if (all[o + 2] == 0.0) return;  // someone's window not full yet
    loads.push_back(balance::NodeLoad{all[o], all[o + 1]});
    current.push_back(static_cast<long long>(all[o]));
  }
  const std::vector<long long> target =
      policy_->decide_global(loads, cfg_.balance);
  const std::vector<long long> flows =
      balance::boundary_flows(current, target);

  // Every rank deterministically simulates the clamped execution plan.
  std::vector<long long> planes(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    planes[static_cast<std::size_t>(i)] =
        current[static_cast<std::size_t>(i)] / pc;
  struct Transfer {
    int donor, recv;
    long long k;
  };
  std::vector<Transfer> plan;
  for (int b = 0; b + 1 < n; ++b) {
    const long long f = flows[static_cast<std::size_t>(b)];
    if (std::llabs(f) < cfg_.balance.min_transfer_points) continue;
    const int donor = f > 0 ? b : b + 1;
    const int recv = f > 0 ? b + 1 : b;
    const long long k = std::llabs(balance::quantize_flow_to_planes(
        f, pc, planes[static_cast<std::size_t>(donor)]));
    if (k == 0) continue;
    planes[static_cast<std::size_t>(donor)] -= k;
    planes[static_cast<std::size_t>(recv)] += k;
    plan.push_back({donor, recv, k});
  }

  const int me = comm_.rank();
  for (const Transfer& tr : plan) {
    if (tr.donor != me) continue;
    send_planes(tr.recv, tr.recv > me ? lbm::Side::right : lbm::Side::left,
                tr.k);
  }
  for (const Transfer& tr : plan) {
    if (tr.recv != me) continue;
    recv_planes(tr.donor, tr.donor > me ? lbm::Side::right : lbm::Side::left);
  }
}

std::vector<RankStats> ParallelLbm::gather_stats() {
  stats_.planes = slab_->nx_local();
  const double mine[6] = {static_cast<double>(stats_.planes),
                          stats_.compute_seconds,
                          stats_.comm_seconds,
                          stats_.remap_seconds,
                          static_cast<double>(stats_.planes_sent),
                          static_cast<double>(stats_.planes_received)};
  const std::vector<double> all =
      comm_.allgather(std::span<const double>(mine, 6));
  std::vector<RankStats> out(static_cast<std::size_t>(comm_.size()));
  for (int r = 0; r < comm_.size(); ++r) {
    const std::size_t o = 6 * static_cast<std::size_t>(r);
    auto& s = out[static_cast<std::size_t>(r)];
    s.rank = r;
    s.planes = static_cast<long long>(all[o]);
    s.compute_seconds = all[o + 1];
    s.comm_seconds = all[o + 2];
    s.remap_seconds = all[o + 3];
    s.planes_sent = static_cast<long long>(all[o + 4]);
    s.planes_received = static_cast<long long>(all[o + 5]);
  }
  return out;
}

namespace {
/// Gather pattern shared by the profile getters: the plane owner ships
/// the profile to rank 0.
std::vector<double> gather_profile(
    transport::Communicator& comm, const lbm::Slab& slab, lbm::index_t gx,
    const std::function<std::vector<double>()>& local_profile) {
  const double ext[2] = {static_cast<double>(slab.x_begin()),
                         static_cast<double>(slab.nx_local())};
  const std::vector<double> all =
      comm.allgather(std::span<const double>(ext, 2));
  int owner = -1;
  for (int r = 0; r < comm.size(); ++r) {
    const auto b = static_cast<lbm::index_t>(all[2 * static_cast<std::size_t>(r)]);
    const auto nl =
        static_cast<lbm::index_t>(all[2 * static_cast<std::size_t>(r) + 1]);
    if (gx >= b && gx < b + nl) {
      owner = r;
      break;
    }
  }
  SLIPFLOW_REQUIRE_MSG(owner >= 0, "no rank owns plane " << gx);
  if (comm.rank() == owner) {
    std::vector<double> prof = local_profile();
    if (owner == 0) return prof;
    comm.send(0, kTagProfile, prof);
    return {};
  }
  if (comm.rank() == 0) return comm.recv(owner, kTagProfile);
  return {};
}
}  // namespace

void ParallelLbm::refresh_observables() {
  SLIPFLOW_REQUIRE_MSG(initialized_, "call initialize() before refresh");
  // Same exchange + kernel the stepper runs, so on an unmigrated slab
  // every ueq / total-density / velocity value is recomputed to the
  // exact bytes it already holds; on a freshly migrated (or restored)
  // slab the zeroed mixture fields are rebuilt from the migrated state.
  ensure_plan();
  halo_->exchange_density(*slab_);
  lbm::compute_forces_and_velocity_plan(*slab_);
}

std::vector<double> ParallelLbm::gather_velocity_profile_y(lbm::index_t gx,
                                                           lbm::index_t z) {
  return gather_profile(comm_, *slab_, gx, [&] {
    return lbm::velocity_profile_y(*slab_, gx, z);
  });
}

std::vector<double> ParallelLbm::gather_density_profile_y(
    std::size_t component, lbm::index_t gx, lbm::index_t z) {
  return gather_profile(comm_, *slab_, gx, [&] {
    return lbm::density_profile_y(*slab_, component, gx, z);
  });
}

double ParallelLbm::global_mass(std::size_t component) {
  return comm_.allreduce_sum(lbm::owned_mass(*slab_, component));
}

std::vector<double> ParallelLbm::global_masses_ordered() {
  const std::size_t comps = slab_->num_components();
  const std::size_t nx = static_cast<std::size_t>(cfg_.global.nx);
  // One slot per (global plane, component); only the owner writes it, so
  // the element-wise allreduce adds exact zeros and the slot value is
  // independent of the reduction's rank order.
  std::vector<double> per_plane(nx * comps, 0.0);
  for (lbm::index_t gx = slab_->x_begin(); gx < slab_->x_end(); ++gx)
    for (std::size_t c = 0; c < comps; ++c)
      per_plane[static_cast<std::size_t>(gx) * comps + c] =
          lbm::plane_mass(*slab_, c, gx) *
          cfg_.fluid.components[c].molecular_mass;
  const std::vector<double> all =
      comm_.allreduce_sum(std::span<const double>(per_plane));
  std::vector<double> masses(comps, 0.0);
  for (std::size_t gx = 0; gx < nx; ++gx)
    for (std::size_t c = 0; c < comps; ++c) masses[c] += all[gx * comps + c];
  return masses;
}

void ParallelLbm::save_checkpoint(const std::string& path, long long phase) {
  SLIPFLOW_REQUIRE_MSG(initialized_, "nothing to checkpoint yet");
  const std::string tmp = path + ".tmp";
  if (comm_.rank() == 0) {
    lbm::begin_checkpoint(cfg_.global, slab_->num_components(), phase,
                          slab_->migration_doubles(1), tmp);
  }
  comm_.barrier();  // the file must exist before anyone writes planes
  lbm::write_checkpoint_planes(*slab_, tmp);
  comm_.barrier();  // every rank's planes are on disk
  if (comm_.rank() == 0 && std::rename(tmp.c_str(), path.c_str()) != 0)
    throw transport::comm_error("cannot publish checkpoint " + path);
  comm_.barrier();  // and published before anyone reads it back
}

long long ParallelLbm::load_checkpoint(const std::string& path) {
  const long long phase = lbm::load_checkpoint_planes(*slab_, path);
  comm_.barrier();
  initialized_ = true;
  // Adopt the stored phase (matching sequential Simulation): subsequent
  // run() calls continue the absolute numbering, so heartbeat phases and
  // periodic-output file names stay consistent across a resume — which
  // is what lets the campaign server's recovery pick the newest
  // checkpoint by file name across attempts.
  phases_done_ = phase;
  return phase;
}

void ParallelLbm::save_checkpoint_async(const std::string& path,
                                        long long phase) {
  SLIPFLOW_REQUIRE_MSG(initialized_, "nothing to checkpoint yet");
  if (comm_.rank() == 0) {
    lbm::begin_checkpoint(cfg_.global, slab_->num_components(), phase,
                          slab_->migration_doubles(1), path);
  }
  comm_.barrier();  // the file must exist before anyone queues planes
  if (writer_ == nullptr) writer_ = std::make_unique<obs::AsyncWriter>();
  // The owned planes are a contiguous x-range, so the whole payload is
  // one positional write; a recycled buffer keeps this double-buffered.
  std::vector<std::byte> bytes = writer_->take_buffer();
  lbm::pack_checkpoint_planes(*slab_, bytes);
  writer_->submit_pwrite(
      path,
      lbm::checkpoint_plane_offset(slab_->migration_doubles(1),
                                   slab_->x_begin()),
      std::move(bytes));
}

void ParallelLbm::flush_output() {
  if (writer_ != nullptr) writer_->flush();
}

}  // namespace slipflow::sim
