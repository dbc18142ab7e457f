// perfbench_driver: the measured program side of the perfbench ledger
// (perfbench/README.md). run.py generates the inputs and calls it.
//
//   perfbench_driver batch  --spec FILE --out FILE --threads N [--trace]
//   perfbench_driver replay --requests FILE --count N --store DIR
//                           --lru-mb N --threads N --clients N
//                           [--dump DIR | --trace]
//
// batch: one spec through the public API: parse_spec -> Study (on a
// --threads-wide serve::SharedPool executor, as the daemon runs it) ->
// run() -> report_to_json -> file. setup_s is the median of kSetupReps
// repetitions of parse + Study construction (tens of microseconds to a
// millisecond, so a single one would be noise), spread over every CPU the
// process may use; wall_s runs from Study::run() until the report bytes are
// written.
//
// replay: the first --count request lines of a netsmith_serve request file,
// run in-process on the serve layer's own pieces (serve::ArtifactStore,
// serve::SharedPool, the protocol helpers) by --clients request threads:
// the daemon minus its socket. --dump writes each report to
// DIR/<request index>.json once the loop has ended, so run.py can check
// replay == daemon byte for byte.
//
// --trace: wraps the StudyOptions::executor and StudyOptions::cache seams in
// timing decorators, times its own calls into api and serve, and
// splits each job into layers by calling the core, topo, routing and vc
// functions the job called on the Study's own graphs, asserting they
// reproduce the Study's results. Self times are concurrency-normalised: at each instant
// the wall time is shared equally by the innermost activities running on
// every thread, so layer self times plus the unattributed remainder add up
// to the traced wall time.
//
// Output: one JSON object on stdout. Exit status 0 = ok, 1 = error or a
// failed check (message on stderr).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sched.h>

#include "api/artifact_io.hpp"
#include "api/report.hpp"
#include "api/study.hpp"
#include "core/anneal.hpp"
#include "obs/metrics.hpp"
#include "routing/channel_load.hpp"
#include "routing/mclb.hpp"
#include "routing/ndbt.hpp"
#include "routing/paths.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "topo/cuts.hpp"
#include "topo/metrics.hpp"
#include "vc/balance.hpp"
#include "vc/layers.hpp"

using namespace netsmith;

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  std::exit(1);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !(out << data)) fail("cannot write " + path);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ------------------------------------------------------------- ledger ---

enum class Act { kParse, kSetup, kEncode, kWrite, kProtocol, kJob, kLoad, kStore };

struct Record {
  Act act = Act::kJob;
  std::string label;  // jobs: the Study's job label ("plan:<key>", ...)
  double submit = 0.0, start = 0.0, end = 0.0;
  double self = 0.0;   // thread time minus nested activities
  double share = 0.0;  // concurrency-normalised wall share of `self`
  int hits = 0, misses = 0;
  std::vector<std::pair<std::string, std::string>> stored;  // kind, payload
};

struct Segment {
  double t0, t1;
  std::size_t rec;
};

// Per-thread stack of open activities: (record, start of its current self
// segment). A nested begin() pauses the parent; its end() resumes it.
thread_local std::vector<std::pair<int, double>> tl_stack;
// Record of the job running on this thread (-1 outside jobs).
thread_local int tl_job = -1;

class Ledger {
 public:
  int begin(Act act, double submit = 0.0) {
    const double t = now_s();
    std::lock_guard<std::mutex> lk(mu_);
    if (!tl_stack.empty()) close_segment_locked(t);
    const int id = static_cast<int>(recs_.size());
    Record r;
    r.act = act;
    r.start = t;
    r.submit = submit > 0.0 ? submit : t;
    recs_.push_back(std::move(r));
    tl_stack.emplace_back(id, t);
    return id;
  }

  void end(int id, const std::string* label = nullptr) {
    const double t = now_s();
    std::lock_guard<std::mutex> lk(mu_);
    if (tl_stack.empty() || tl_stack.back().first != id)
      fail("ledger: unbalanced activity scopes");
    close_segment_locked(t);
    tl_stack.pop_back();
    recs_[static_cast<std::size_t>(id)].end = t;
    if (label) recs_[static_cast<std::size_t>(id)].label = *label;
    if (!tl_stack.empty()) tl_stack.back().second = t;
  }

  void note_load(int job, bool hit) {
    if (job < 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    auto& r = recs_[static_cast<std::size_t>(job)];
    (hit ? r.hits : r.misses) += 1;
  }

  void note_store(int job, const std::string& kind, const std::string& payload) {
    if (job < 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    recs_[static_cast<std::size_t>(job)].stored.emplace_back(kind, payload);
  }

  // Fills Record::self and Record::share. Call once every thread is done.
  void attribute() {
    struct Ev {
      double t;
      std::size_t seg;
      bool open;
    };
    std::vector<Ev> ev;
    for (std::size_t i = 0; i < segs_.size(); ++i) {
      const Segment& sg = segs_[i];
      recs_[sg.rec].self += sg.t1 - sg.t0;
      if (sg.t1 <= sg.t0) continue;
      ev.push_back({sg.t0, i, true});
      ev.push_back({sg.t1, i, false});
    }
    std::sort(ev.begin(), ev.end(), [](const Ev& x, const Ev& y) {
      return x.t != y.t ? x.t < y.t : (!x.open && y.open);
    });
    std::vector<std::size_t> active, pos(segs_.size());
    double last = 0.0;
    for (const Ev& e : ev) {
      for (std::size_t sg : active)
        recs_[segs_[sg].rec].share +=
            (e.t - last) / static_cast<double>(active.size());
      last = e.t;
      if (e.open) {
        pos[e.seg] = active.size();
        active.push_back(e.seg);
      } else {  // swap-remove
        pos[active.back()] = pos[e.seg];
        active[pos[e.seg]] = active.back();
        active.pop_back();
      }
    }
  }

  const std::vector<Record>& records() const { return recs_; }

 private:
  void close_segment_locked(double t) {
    segs_.push_back({tl_stack.back().second, t,
                     static_cast<std::size_t>(tl_stack.back().first)});
  }

  std::mutex mu_;
  std::vector<Record> recs_;
  std::vector<Segment> segs_;
};

// RAII activity; a null ledger (untraced run) makes it a no-op.
class Scope {
 public:
  Scope(Ledger* l, Act act) : l_(l), id_(l ? l->begin(act) : -1) {}
  ~Scope() {
    if (l_) l_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Ledger* l_;
  int id_;
};

// ------------------------------------------------- executor and cache ---

// Times every job from submit to start (wait) and from start to the Study's
// on_job_done callback for it (busy). The callback runs on the job's own
// worker thread, right after the job body (api/study.cpp retire_job).
class TimingExecutor final : public api::JobExecutor {
 public:
  TimingExecutor(api::JobExecutor& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  void submit(std::function<void()> task) override {
    const double submitted = now_s();
    // The closure outlives neither the ledger nor the pool, but may outlive
    // this decorator by its last few instructions, so it holds no `this`.
    inner_.submit([ledger = &ledger_, submitted, task = std::move(task)] {
      tl_job = ledger->begin(Act::kJob, submitted);
      task();
      if (tl_job >= 0) fail("job finished without its on_job_done callback");
    });
  }

  // StudyOptions::on_job_done target.
  void job_done(const std::string& label) {
    if (tl_job < 0) return;
    ledger_.end(tl_job, &label);
    tl_job = -1;
  }

 private:
  api::JobExecutor& inner_;
  Ledger& ledger_;
};

class TimingCache final : public api::ArtifactCache {
 public:
  TimingCache(api::ArtifactCache& inner, Ledger& ledger)
      : inner_(inner), ledger_(ledger) {}

  bool load(const std::string& kind, const std::string& key,
            std::string& payload) override {
    bool hit = false;
    {
      Scope s(&ledger_, Act::kLoad);
      hit = inner_.load(kind, key, payload);
    }
    ledger_.note_load(tl_job, hit);
    return hit;
  }

  void store(const std::string& kind, const std::string& key,
             const std::string& payload) override {
    ledger_.note_store(tl_job, kind, payload);
    Scope s(&ledger_, Act::kStore);
    inner_.store(kind, key, payload);
  }

 private:
  api::ArtifactCache& inner_;
  Ledger& ledger_;
};

// ------------------------------------------------ layer split replays ---

using Metrics = std::map<std::string, double>;
// (metric, replayed seconds) of the calls one job made.
using Parts = std::vector<std::pair<std::string, double>>;

// Times the calls a topology job makes (api/study.cpp run_topology_job):
// the move-budgeted synthesis, then the analytic block on its graph, and
// checks they reproduce the job's graph and values.
Parts replay_topology(
    const api::TopologyArtifact& t, bool analytic) {
  Parts parts;
  const auto& g = t.topo.graph;
  double t0 = now_s();
  if (t.synthesized) {
    if (t.max_moves <= 0) fail("replay needs move-budgeted synthesis: " + t.key);
    core::AnnealOptions ao;
    ao.threads = 1;
    ao.max_moves = t.max_moves;
    ao.landmark_sources = t.landmark_sources;
    const auto again = core::anneal_synthesize(t.synth_cfg, ao);
    parts.emplace_back("core.anneal_s", now_s() - t0);
    if (again.graph.to_string() != g.to_string() || again.moves != t.synth.moves)
      fail("annealer replay differs from the Study's synthesis for " + t.key);
  }
  if (!analytic) return parts;
  t0 = now_s();
  const double avg = topo::average_hops(g);
  const int diam = topo::diameter(g);
  const double hops_diam = now_s() - t0;
  t0 = now_s();
  const int bis = topo::bisection_bandwidth(g);
  const double bisection = now_s() - t0;
  double cut = 0.0, cut_s = 0.0;
  if (g.num_nodes() <= 64) {
    t0 = now_s();
    cut = routing::cut_bound(g);
    cut_s = now_s() - t0;
  }
  if (avg != t.avg_hops || diam != t.diameter || bis != t.bisection_bw ||
      cut != t.cut_bound)
    fail("topo replay differs from the Study's analytic block for " + t.key);
  parts.insert(parts.end(), {{"topo.hops_diam_s", hops_diam},
                             {"topo.bisection_s", bisection},
                             {"topo.cut_bound_s", cut_s}});
  return parts;
}

// Re-runs plan_network's steps (core/netsmith.cpp) one call at a time and
// checks the result is the Study's plan: same max channel load, VC layer
// count and VC map, and every layer's channel dependency graph acyclic.
Parts replay_plan(
    const api::Study& study, const api::PlanArtifact& p, Metrics& m) {
  if (p.has_system) fail("plan replay does not cover chiplet systems");
  const auto& spec = study.spec();
  const auto& t = study.topology_artifacts()[static_cast<std::size_t>(p.topology)];
  const auto& g = t.topo.graph;
  Parts parts;

  double t0 = now_s();
  const auto all = routing::enumerate_shortest_paths(g, spec.max_paths_per_flow);
  parts.emplace_back("routing.paths_s", now_s() - t0);
  m["routing.paths"] += static_cast<double>(all.total_paths());

  util::Rng rng(p.seed);
  double max_load = 0.0;
  t0 = now_s();
  routing::RoutingTable table = [&] {
    if (study.policy_for(t) == core::RoutingPolicy::kMclb) {
      const auto mclb = routing::mclb_local_search(all);
      max_load = mclb.max_load;
      m["routing.mclb_iterations"] += static_cast<double>(mclb.iterations);
      auto tab = mclb.table(all);
      parts.emplace_back("routing.mclb_s", now_s() - t0);
      return tab;
    }
    const auto filtered = routing::ndbt_filter(all, t.topo.layout);
    auto tab = routing::RoutingTable::select_random(filtered.paths, rng);
    max_load = routing::analyze_uniform(tab).max_load;
    parts.emplace_back("routing.ndbt_s", now_s() - t0);
    return tab;
  }();

  t0 = now_s();
  const auto layers = vc::assign_layers(table, g, rng);
  parts.emplace_back("vc.layers_s", now_s() - t0);
  t0 = now_s();
  const auto vcmap = vc::balance_vcs(layers, table, spec.num_vcs);
  parts.emplace_back("vc.balance_s", now_s() - t0);
  m["vc.layers"] += layers.num_layers;

  if (max_load != p.plan.max_channel_load || layers.num_layers != p.plan.vc_layers ||
      vcmap.vc != p.plan.vc_map.vc)
    fail("routing/vc replay differs from the Study's plan " + p.key);
  if (!vc::verify_acyclic(layers, table, g))
    fail("VC layering of plan " + p.key + " has a cyclic channel dependency graph");
  return parts;
}

// Time to re-encode the payloads a job stored (sweep payloads; those are the
// only artifacts a warm serve request writes). Checks encode(decode(p)) == p.
double replay_encode(const Record& r) {
  double total = 0.0;
  for (const auto& [kind, payload] : r.stored) {
    if (kind != api::kSweepArtifactKind) continue;
    sim::SweepResult res;
    if (!api::restore_sweep_artifact(payload, res))
      fail("stored sweep payload does not restore");
    const double t0 = now_s();
    const std::string again = api::sweep_artifact_payload(res);
    total += now_s() - t0;
    if (again != payload) fail("sweep payload does not re-encode identically");
  }
  return total;
}

struct JobSplit {
  std::string layer;   // layer of a job body that was not replayed
  std::string metric;  // metric it is added to ("" = layer total only)
  // Replayed calls. When `complete`, they are every call the job body
  // makes, and its share is split in proportion to their replayed times;
  // otherwise each part keeps its replayed time and the rest of the share
  // goes to `layer`.
  Parts parts;
  bool complete = false;
};

// Accumulates per-layer metrics from a finished, attributed ledger.
// `split_of` returns the replayed split of a job that computed (missed).
void attribute_layers(
    const std::vector<Record>& recs,
    const std::function<JobSplit(const Record&)>& split_of, Metrics& m) {
  auto add = [&](const std::string& layer, const std::string& metric,
                 double v) {
    m[layer + ".self_s"] += v;
    if (!metric.empty()) m[metric] += v;
  };
  for (const auto& r : recs) {
    switch (r.act) {
      case Act::kParse: add("api", "api.parse_s", r.share); break;
      case Act::kSetup: add("api", "api.study_setup_s", r.share); break;
      case Act::kEncode: add("api", "api.report_encode_s", r.share); break;
      case Act::kWrite: add("api", "api.report_write_s", r.share); break;
      case Act::kProtocol: add("serve", "serve.protocol_s", r.share); break;
      case Act::kLoad: add("serve", "serve.store_load_s", r.share); break;
      case Act::kStore: add("serve", "serve.store_write_s", r.share); break;
      case Act::kJob: {
        m["api.job_busy_s"] += r.end - r.start;
        m["api.job_wait_s"] += r.start - r.submit;
        m["api.jobs"] += 1;
        if (r.hits > 0 && r.misses == 0) {
          // A restored artifact: the job body after the (nested, separately
          // timed) store load is the payload decode.
          add("api", "api.artifact_decode_s", r.share);
          break;
        }
        JobSplit js = split_of(r);
        const double enc = replay_encode(r);
        if (enc > 0.0) js.parts.emplace_back("api.artifact_encode_s", enc);
        double parts_total = 0.0;
        for (const auto& pr : js.parts) parts_total += pr.second;
        const double scale =
            parts_total <= 0.0 ? 0.0
            : js.complete      ? r.share / parts_total
                               : r.share / std::max(r.self, parts_total);
        double rest = r.share;
        for (const auto& [metric, secs] : js.parts) {
          const double v = secs * scale;
          add(metric.substr(0, metric.find('.')), metric, v);
          rest -= v;
        }
        add(js.layer, js.metric, std::max(0.0, rest));
        break;
      }
    }
  }
}

constexpr const char* kLayers[] = {"api", "core", "topo", "routing",
                                   "vc", "sim", "power", "serve"};

// Adds the derived per-layer ratios and the unattributed remainder.
void finish_metrics(Metrics& m, double wall) {
  for (const char* l : kLayers) m[std::string(l) + ".self_s"] += 0.0;
  double attributed = 0.0;
  for (const char* l : kLayers) attributed += m[std::string(l) + ".self_s"];
  m["trace.wall_s"] = wall;
  m["trace.unattributed_pct"] =
      wall > 0.0 ? 100.0 * (wall - attributed) / wall : 0.0;

  const auto snap = obs::snapshot_metrics();
  auto counter = [&](const char* name) {
    for (const auto& [k, v] : snap.counters)
      if (k == name) return static_cast<double>(v);
    return 0.0;
  };
  m["sim.cycles"] = counter("sim.cycles");
  // Routers per simulated cycle: the points-weighted mean router count.
  const double points = m["sim.points"];
  const double routers = points > 0.0 ? m["sim.router_points"] / points : 0.0;
  const double router_cycles = m["sim.cycles"] * routers;
  m["sim.active_router_frac"] =
      router_cycles > 0.0 ? counter("sim.active_router_cycles") / router_cycles
                          : 0.0;
  const double sweep_busy = m["sim.sweep_busy_s"];
  m.erase("sim.router_points");
  m.erase("sim.sweep_busy_s");
  m["sim.cycles_per_s"] = sweep_busy > 0.0 ? m["sim.cycles"] / sweep_busy : 0.0;
}

// Adds the points of every sweep in `rep` to the simulator counts; callers
// pass only reports whose sweeps the simulator ran (not restored).
void count_sweeps(const api::Report& rep, Metrics& m) {
  for (const auto& sw : rep.sweeps) {
    const auto& plan = rep.plans[static_cast<std::size_t>(sw.plan)];
    const auto& t = rep.topologies[static_cast<std::size_t>(plan.topology)];
    for (const auto& pt : sw.points) {
      m["sim.points"] += 1;
      m["sim.saturated_points"] += pt.saturated ? 1 : 0;
      m["sim.router_points"] += t.routers;
    }
  }
}

void print_metrics(const Metrics& m) {
  std::printf("\"metrics\": {");
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", k.c_str(), v);
    first = false;
  }
  std::printf("}");
}

// --------------------------------------------------------------- batch ---

constexpr int kSetupReps = 200;

// Times kSetupReps parse + Study constructions, an equal share pinned to
// each CPU the process may run on. The host loads its vCPUs unevenly and a
// set-up lasts microseconds, so unpinned samples would all measure
// whichever vCPU the process happened to start on.
std::vector<double> setup_samples(const std::string& text) {
  cpu_set_t allowed;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.empty()) cpus.push_back(-1);  // affinity unavailable: no pinning
  std::vector<double> samples;
  for (int cpu : cpus) {
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    for (std::size_t r = 0; r < kSetupReps / cpus.size(); ++r) {
      const double t0 = now_s();
      api::Study probe(api::parse_spec(text));
      samples.push_back(now_s() - t0);
    }
  }
  if (cpus.front() >= 0) sched_setaffinity(0, sizeof allowed, &allowed);
  return samples;
}

struct Args {
  std::map<std::string, std::string> kv;
  bool trace = false;
  std::string get(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) fail("missing --" + k);
    return it->second;
  }
  int get_int(const std::string& k, int def) const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : std::atoi(it->second.c_str());
  }
};

int run_batch(const Args& a) {
  const std::string text = read_file(a.get("spec"));
  const std::string out = a.get("out");
  const int threads = a.get_int("threads", 1);

  // Both modes run the Study on the daemon's executor (serve::SharedPool)
  // of `threads` workers, so the traced run schedules jobs exactly as the
  // untraced one does.
  if (!a.trace) {
    const std::vector<double> setup = setup_samples(text);
    serve::SharedPool pool(threads);
    api::StudyOptions opts;
    opts.executor = &pool;
    api::Study study(api::parse_spec(text), opts);
    const double t1 = now_s();
    const api::Report report = study.run();
    const std::string json = api::report_to_json(report);
    write_file(out, json);
    const double wall = now_s() - t1;
    std::printf("{\"setup_s\": %.17g, \"wall_s\": %.17g}\n", median(setup),
                wall);
    return 0;
  }

  obs::set_metrics_enabled(true);
  Ledger ledger;
  serve::SharedPool pool(threads);
  TimingExecutor exec(pool, ledger);
  api::StudyOptions opts;
  opts.executor = &exec;
  opts.on_job_done = [&exec](const std::string& label, int, int) {
    exec.job_done(label);
  };

  const double t0 = now_s();
  api::ExperimentSpec spec;
  {
    Scope s(&ledger, Act::kParse);
    spec = api::parse_spec(text);
  }
  std::unique_ptr<api::Study> study;
  {
    Scope s(&ledger, Act::kSetup);
    study = std::make_unique<api::Study>(spec, opts);
  }
  const double t1 = now_s();
  const api::Report report = study->run();
  std::string json;
  {
    Scope s(&ledger, Act::kEncode);
    json = api::report_to_json(report);
  }
  {
    Scope s(&ledger, Act::kWrite);
    write_file(out, json);
  }
  const double t2 = now_s();
  ledger.attribute();

  Metrics m;
  std::map<std::string, Parts> topo_parts, plan_parts;
  for (const auto& t : study->topology_artifacts()) {
    topo_parts["topology:" + t.key] = replay_topology(t, spec.analytic);
    if (t.synthesized) {
      m["core.anneal_moves"] += static_cast<double>(t.synth.moves);
      m["core.anneal_accepted"] += static_cast<double>(t.synth.accepted);
      m["core.apsp_rows"] += static_cast<double>(t.synth.apsp_resweeps);
    }
  }
  for (const auto& p : study->plan_artifacts())
    plan_parts["plan:" + p.key] = replay_plan(*study, p, m);

  auto split_of = [&](const Record& r) {
    JobSplit js;
    const std::string kind = r.label.substr(0, r.label.find(':'));
    if (kind == "topology") {
      js.layer = "topo";
      js.parts = topo_parts[r.label];
      js.complete = true;
    } else if (kind == "plan") {
      js.layer = "routing";
      js.parts = plan_parts[r.label];
      js.complete = true;
    } else if (kind == "sweep" || kind == "resilience") {
      js.layer = "sim";
      js.metric = "sim.sweep_s";
      m["sim.sweep_busy_s"] += r.end - r.start;
    } else if (kind == "power") {
      js.layer = "power";
      js.metric = "power.estimate_s";
    } else {
      fail("unknown job label " + r.label);
    }
    return js;
  };
  attribute_layers(ledger.records(), split_of, m);

  count_sweeps(report, m);  // no cache: every sweep was simulated
  const double moves = m["core.anneal_moves"];
  m["core.anneal_accept_ratio"] = moves > 0 ? m["core.anneal_accepted"] / moves : 0.0;
  m["core.apsp_rows_per_move"] = moves > 0 ? m["core.apsp_rows"] / moves : 0.0;
  m.erase("core.anneal_accepted");
  m.erase("core.apsp_rows");
  m["api.report_bytes"] = static_cast<double>(json.size());
  finish_metrics(m, t2 - t0);

  std::printf("{\"wall_s\": %.17g, ", t2 - t1);
  print_metrics(m);
  std::printf("}\n");
  return 0;
}

// -------------------------------------------------------------- replay ---

int run_replay(const Args& a) {
  std::vector<std::string> lines;
  {
    std::istringstream in(read_file(a.get("requests")));
    for (std::string line; std::getline(in, line);)
      if (!line.empty()) lines.push_back(line);
  }
  const int count = std::min<int>(a.get_int("count", 0), static_cast<int>(lines.size()));
  if (count <= 0) fail("replay: no requests");
  const int clients = std::max(1, a.get_int("clients", 1));

  if (a.trace) obs::set_metrics_enabled(true);
  // Declaration order: the ledger and the store outlive the pool's workers.
  std::unique_ptr<Ledger> ledger;
  if (a.trace) ledger = std::make_unique<Ledger>();
  serve::ArtifactStore store(serve::StoreOptions{
      a.get("store"), static_cast<std::size_t>(a.get_int("lru-mb", 64)) << 20});
  serve::SharedPool pool(a.get_int("threads", 1));
  std::unique_ptr<TimingExecutor> exec;
  std::unique_ptr<TimingCache> cache;
  if (a.trace) {
    exec = std::make_unique<TimingExecutor>(pool, *ledger);
    cache = std::make_unique<TimingCache>(store, *ledger);
  }
  Ledger* lg = ledger.get();

  std::vector<std::string> reports(static_cast<std::size_t>(count));
  std::vector<std::string> errors;
  std::mutex mu;
  Metrics sim_counts;  // points of the sweeps the replay simulated
  std::atomic<int> next{0};

  auto client = [&] {
    for (int i; (i = next.fetch_add(1)) < count;) {
      try {
        serve::Request req;
        {
          Scope s(lg, Act::kProtocol);
          req = serve::parse_request(lines[static_cast<std::size_t>(i)]);
        }
        if (req.op != "run") throw std::runtime_error("replay supports op run only");
        api::ExperimentSpec spec;
        {
          Scope s(lg, Act::kParse);
          spec = api::spec_from_json(req.spec);
        }
        api::StudyOptions opts;
        opts.cache = a.trace ? static_cast<api::ArtifactCache*>(cache.get()) : &store;
        opts.executor = a.trace ? static_cast<api::JobExecutor*>(exec.get()) : &pool;
        if (a.trace) {
          opts.on_job_done = [&](const std::string& label, int, int) {
            exec->job_done(label);
          };
        }
        std::unique_ptr<api::Study> study;
        {
          Scope s(lg, Act::kSetup);
          study = std::make_unique<api::Study>(spec, opts);
        }
        const api::Report report = study->run();
        std::string json, event;
        {
          Scope s(lg, Act::kEncode);
          json = api::report_to_json(report);
        }
        {
          // Built as the daemon builds it; the replay has no socket to
          // write it to.
          Scope s(lg, Act::kProtocol);
          event = serve::report_event(json, !report.failed_jobs.empty(),
                                      study->artifact_cache_stats(),
                                      store.stats());
        }
        const auto cs = study->artifact_cache_stats();
        std::lock_guard<std::mutex> lk(mu);
        reports[static_cast<std::size_t>(i)] = std::move(json);
        // Warm requests restore every sweep; fresh ones simulate every one.
        if (cs.sweep_misses > 0) count_sweeps(report, sim_counts);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(mu);
        errors.push_back(std::to_string(i) + ": " + e.what());
      }
    }
  };

  const double t0 = now_s();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client);
    for (auto& t : threads) t.join();
  }
  const double wall = now_s() - t0;
  if (!errors.empty()) fail("replay request " + errors.front());

  const auto dump = a.kv.find("dump");
  if (dump != a.kv.end())
    for (int i = 0; i < count; ++i)
      write_file(dump->second + "/" + std::to_string(i) + ".json",
                 reports[static_cast<std::size_t>(i)]);
  std::printf("{\"wall_s\": %.17g, \"requests\": %d", wall, count);
  if (a.trace) {
    ledger->attribute();
    Metrics m;
    auto split_of = [&](const Record& r) {
      JobSplit js;
      const std::string kind = r.label.substr(0, r.label.find(':'));
      // Warm requests restore topologies and plans; only sweeps compute.
      js.layer = kind == "topology" ? "core" : kind == "plan" ? "routing"
                 : kind == "power"  ? "power" : "sim";
      js.metric = js.layer == "sim" ? "sim.sweep_s"
                  : js.layer == "power" ? "power.estimate_s" : "";
      if (js.layer == "sim") m["sim.sweep_busy_s"] += r.end - r.start;
      return js;
    };
    attribute_layers(ledger->records(), split_of, m);
    m.insert(sim_counts.begin(), sim_counts.end());
    finish_metrics(m, wall);
    std::printf(", ");
    print_metrics(m);
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) fail("usage: perfbench_driver batch|replay --key value ...");
  Args a;
  for (int i = 2; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--trace")) {
      a.trace = true;
    } else if (argv[i][0] == '-' && argv[i][1] == '-' && i + 1 < argc) {
      a.kv[argv[i] + 2] = argv[i + 1];
      ++i;
    } else {
      fail(std::string("unexpected argument ") + argv[i]);
    }
  }
  try {
    if (!std::strcmp(argv[1], "batch")) return run_batch(a);
    if (!std::strcmp(argv[1], "replay")) return run_replay(a);
  } catch (const std::exception& e) {
    fail(e.what());
  }
  fail(std::string("unknown mode ") + argv[1]);
}
