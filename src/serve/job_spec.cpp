#include "serve/job_spec.hpp"

#include <set>
#include <string>

#include "serve/protocol.hpp"

namespace slipflow::serve {

namespace {

using util::JsonValue;

/// Reject spec members the schema does not know — a typo in a sweep key
/// must fail admission, not silently run the default.
void check_keys(const JsonValue& obj, const char* where,
                const std::set<std::string, std::less<>>& known) {
  for (const auto& [key, value] : obj.as_object()) {
    (void)value;
    if (known.find(key) == known.end())
      throw serve_error(std::string("unknown ") + where + " field \"" + key +
                        "\"");
  }
}

void require(bool ok, const std::string& what) {
  if (!ok) throw serve_error("invalid job spec: " + what);
}

}  // namespace

JobSpec JobSpec::from_json(const JsonValue& v) {
  if (!v.is_object()) throw serve_error("job spec must be a JSON object");
  check_keys(v, "job spec",
             {"geometry", "components", "phases", "params", "ranks", "policy",
              "remap_interval", "window", "min_transfer", "threads", "step",
              "transport", "shm_ring_bytes", "warm_phases", "stream_every",
              "checkpoint_every", "heartbeat_interval", "heartbeat_grace",
              "wall_clock_budget", "observables", "fault"});
  JobSpec s;
  if (const JsonValue* g = v.find("geometry")) {
    check_keys(*g, "geometry", {"nx", "ny", "nz"});
    s.nx = g->int_or("nx", s.nx);
    s.ny = g->int_or("ny", s.ny);
    s.nz = g->int_or("nz", s.nz);
  }
  s.components = v.int_or("components", s.components);
  s.phases = v.int_or("phases", s.phases);
  if (const JsonValue* p = v.find("params")) {
    check_keys(*p, "params",
               {"wall_accel", "wall_decay", "air_fraction", "coupling_g",
                "gravity"});
    s.wall_accel = p->number_or("wall_accel", s.wall_accel);
    s.wall_decay = p->number_or("wall_decay", s.wall_decay);
    s.air_fraction = p->number_or("air_fraction", s.air_fraction);
    s.coupling_g = p->number_or("coupling_g", s.coupling_g);
    s.gravity = p->number_or("gravity", s.gravity);
  }
  s.ranks = static_cast<int>(v.int_or("ranks", s.ranks));
  s.policy = v.string_or("policy", s.policy);
  s.remap_interval = static_cast<int>(v.int_or("remap_interval", s.remap_interval));
  s.window = static_cast<int>(v.int_or("window", s.window));
  s.min_transfer = v.int_or("min_transfer", s.min_transfer);
  s.threads = static_cast<int>(v.int_or("threads", s.threads));
  s.step = v.string_or("step", s.step);
  s.transport = v.string_or("transport", s.transport);
  s.shm_ring_bytes = v.int_or("shm_ring_bytes", s.shm_ring_bytes);
  s.warm_phases = v.int_or("warm_phases", s.warm_phases);
  s.stream_every = v.int_or("stream_every", s.stream_every);
  s.checkpoint_every = v.int_or("checkpoint_every", s.checkpoint_every);
  s.heartbeat_interval = v.number_or("heartbeat_interval", s.heartbeat_interval);
  s.heartbeat_grace = v.number_or("heartbeat_grace", s.heartbeat_grace);
  s.wall_clock_budget = v.number_or("wall_clock_budget", s.wall_clock_budget);
  s.observables = v.string_or("observables", s.observables);
  if (const JsonValue* f = v.find("fault")) {
    check_keys(*f, "fault", {"kill_rank", "kill_phase"});
    s.fault_kill_rank = static_cast<int>(f->int_or("kill_rank", -1));
    s.fault_kill_phase = f->int_or("kill_phase", -1);
  }

  require(s.nx >= 2 && s.ny >= 2 && s.nz >= 1, "geometry must be >= 2x2x1");
  require(s.components == 2,
          "components must be 2 (the microchannel water+air model)");
  require(s.phases >= 1, "phases must be >= 1");
  require(s.ranks >= 1, "ranks must be >= 1");
  require(s.nx >= s.ranks, "nx must be >= ranks (one plane per rank)");
  require(s.step == "overlap" || s.step == "blocking",
          "step must be \"overlap\" or \"blocking\"");
  require(s.transport == "shm", "transport must be \"shm\"");
  require(s.observables == "physics" || s.observables == "full",
          "observables must be \"physics\" or \"full\"");
  require(s.warm_phases >= 0 && s.warm_phases <= s.phases,
          "warm_phases must be in [0, phases]");
  require(s.stream_every >= 0, "stream_every must be >= 0");
  require(s.checkpoint_every >= 0, "checkpoint_every must be >= 0");
  require(s.threads >= 1, "threads must be >= 1");
  require(s.remap_interval >= 1, "remap_interval must be >= 1");
  require(s.heartbeat_interval > 0.0, "heartbeat_interval must be > 0");
  require(s.wall_clock_budget > 0.0, "wall_clock_budget must be > 0");
  return s;
}

util::JsonValue JobSpec::to_json() const {
  JsonValue::Object geometry;
  geometry["nx"] = JsonValue(nx);
  geometry["ny"] = JsonValue(ny);
  geometry["nz"] = JsonValue(nz);
  JsonValue::Object params;
  params["wall_accel"] = JsonValue(wall_accel);
  params["wall_decay"] = JsonValue(wall_decay);
  params["air_fraction"] = JsonValue(air_fraction);
  params["coupling_g"] = JsonValue(coupling_g);
  params["gravity"] = JsonValue(gravity);
  JsonValue::Object o;
  o["geometry"] = JsonValue(std::move(geometry));
  o["components"] = JsonValue(components);
  o["phases"] = JsonValue(phases);
  o["params"] = JsonValue(std::move(params));
  o["ranks"] = JsonValue(static_cast<long long>(ranks));
  o["policy"] = JsonValue(policy);
  o["remap_interval"] = JsonValue(static_cast<long long>(remap_interval));
  o["window"] = JsonValue(static_cast<long long>(window));
  o["min_transfer"] = JsonValue(min_transfer);
  o["threads"] = JsonValue(static_cast<long long>(threads));
  o["step"] = JsonValue(step);
  o["transport"] = JsonValue(transport);
  o["shm_ring_bytes"] = JsonValue(shm_ring_bytes);
  o["warm_phases"] = JsonValue(warm_phases);
  o["stream_every"] = JsonValue(stream_every);
  o["checkpoint_every"] = JsonValue(checkpoint_every);
  o["heartbeat_interval"] = JsonValue(heartbeat_interval);
  o["heartbeat_grace"] = JsonValue(heartbeat_grace);
  o["wall_clock_budget"] = JsonValue(wall_clock_budget);
  o["observables"] = JsonValue(observables);
  if (fault_kill_rank >= 0 || fault_kill_phase >= 0) {
    JsonValue::Object fault;
    fault["kill_rank"] = JsonValue(static_cast<long long>(fault_kill_rank));
    fault["kill_phase"] = JsonValue(fault_kill_phase);
    o["fault"] = JsonValue(std::move(fault));
  }
  return JsonValue(std::move(o));
}

std::string JobSpec::warm_key() const {
  JsonValue::Object geometry;
  geometry["nx"] = JsonValue(nx);
  geometry["ny"] = JsonValue(ny);
  geometry["nz"] = JsonValue(nz);
  JsonValue::Object params;
  params["wall_accel"] = JsonValue(wall_accel);
  params["wall_decay"] = JsonValue(wall_decay);
  params["air_fraction"] = JsonValue(air_fraction);
  params["coupling_g"] = JsonValue(coupling_g);
  params["gravity"] = JsonValue(gravity);
  JsonValue::Object o;
  o["geometry"] = JsonValue(std::move(geometry));
  o["components"] = JsonValue(components);
  o["params"] = JsonValue(std::move(params));
  o["warm_phases"] = JsonValue(warm_phases);
  // dump() is canonical (sorted keys, deterministic number formatting),
  // so equal physics always hashes to the same cache entry.
  return JsonValue(std::move(o)).dump();
}

transport::LaunchConfig make_launch_config(const JobSpec& spec,
                                           const std::string& worker_exe,
                                           const JobPaths& paths) {
  const auto num = [](double v) { return util::json_number(v); };
  transport::LaunchConfig lc;
  lc.ranks = spec.ranks;
  lc.shm_ring_bytes = spec.shm_ring_bytes;
  lc.heartbeat_interval = spec.heartbeat_interval;
  lc.heartbeat_grace = spec.heartbeat_grace;
  lc.wall_clock_timeout = spec.wall_clock_budget;
  lc.worker_command = {worker_exe,
                       "--nx=" + std::to_string(spec.nx),
                       "--ny=" + std::to_string(spec.ny),
                       "--nz=" + std::to_string(spec.nz),
                       "--phases=" + std::to_string(spec.phases),
                       "--wall-accel=" + num(spec.wall_accel),
                       "--wall-decay=" + num(spec.wall_decay),
                       "--air-fraction=" + num(spec.air_fraction),
                       "--coupling-g=" + num(spec.coupling_g),
                       "--gravity=" + num(spec.gravity),
                       "--policy=" + spec.policy,
                       "--remap-interval=" + std::to_string(spec.remap_interval),
                       "--window=" + std::to_string(spec.window),
                       "--min-transfer=" + std::to_string(spec.min_transfer),
                       "--threads=" + std::to_string(spec.threads),
                       "--step=" + spec.step,
                       "--observables=" + spec.observables};
  if (!paths.observables_out.empty())
    lc.worker_command.push_back("--observables-out=" + paths.observables_out);
  if (!paths.load_checkpoint.empty())
    lc.worker_command.push_back("--load-checkpoint=" + paths.load_checkpoint);
  if (!paths.warm_checkpoint_out.empty() && spec.warm_phases > 0) {
    lc.worker_command.push_back("--warm-phases=" +
                                std::to_string(spec.warm_phases));
    lc.worker_command.push_back("--warm-checkpoint-out=" +
                                paths.warm_checkpoint_out);
  }
  if (spec.stream_every > 0 && !paths.stream_dir.empty()) {
    lc.worker_command.push_back("--stream-every=" +
                                std::to_string(spec.stream_every));
    lc.worker_command.push_back("--stream-dir=" + paths.stream_dir);
  }
  if (spec.checkpoint_every > 0 && !paths.checkpoint_prefix.empty()) {
    lc.worker_command.push_back("--checkpoint-every=" +
                                std::to_string(spec.checkpoint_every));
    lc.worker_command.push_back("--checkpoint-out=" + paths.checkpoint_prefix);
    // Recovery seeds only from complete files: only the synchronous
    // save_checkpoint publishes by rename, so force --io=sync.
    lc.worker_command.push_back("--io=sync");
  }
  if (spec.fault_kill_rank >= 0 && spec.fault_kill_rank < spec.ranks &&
      spec.fault_kill_phase >= 0)
    lc.extra_args[spec.fault_kill_rank] = {
        "--fault-kill-phase=" + std::to_string(spec.fault_kill_phase)};
  return lc;
}

}  // namespace slipflow::serve
