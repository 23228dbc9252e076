//! Per-layer totals of a traced run, and the per-layer metrics they
//! render as. Every workload renders every metric; a layer a workload
//! bypasses reads 0 there (stream synthesis on `tenants-n1000`, the
//! gateway on the sweep workloads).

use std::time::Duration;

use bc_system::RunReport;

use crate::metrics::{ratio, Metrics};

/// Raw totals, summed over the traced pass's cells or jobs.
#[derive(Debug, Default)]
pub struct Layers {
    // experiments: the sweep pool.
    pub pool_idle_s: f64,
    pub straggler_s: f64,
    pub encode_s: f64,
    // system: build and run of each simulated machine.
    pub build_s: f64,
    pub run_s: f64,
    pub cycles: u64,
    pub ops: u64,
    pub block_accesses: u64,
    // workloads: access-stream synthesis.
    pub synth_s: f64,
    pub next_op_calls: u64,
    // sim: the event engine.
    pub events: u64,
    // core: Border Control.
    pub bc_checks: u64,
    pub bcc_hits: u64,
    pub bcc_misses: u64,
    pub pt_reads: u64,
    pub pt_writes: u64,
    // cache: accelerator caches and TLBs, as (accesses, misses).
    pub l1: (u64, u64),
    pub l2: (u64, u64),
    pub l1_tlb: (u64, u64),
    // iommu.
    pub iotlb: (u64, u64),
    pub ats_walks: u64,
    // mem: DRAM, with utilization weighted by each run's cycles.
    pub dram_reads: u64,
    pub dram_writes: u64,
    pub dram_busy_cycles: f64,
    // os.
    pub minor_faults: u64,
    pub preempts: u64,
    pub binds: u64,
    pub storms: u64,
    pub pt_zero_blocks: u64,
    pub killed: u64,
    pub kill_p99_cycles: f64,
    // serve: client-side medians and gateway counters.
    pub submit_ms: f64,
    pub status_ms: f64,
    pub cell_fetch_ms: f64,
    pub status_polls: f64,
    pub cas_get_ms: f64,
    pub runner_s: f64,
    pub cas_hit_ratio: f64,
    pub cas_puts: u64,
    pub cas_corrupt: u64,
    pub job_miss_p50_ms: f64,
    // Simulated outcomes compared against the paper / the tail.
    pub fig4_paper_err: f64,
    pub tenant_p99_cycles: f64,
    // The process: peak resident memory (VmHWM).
    pub peak_rss_mib: f64,
    // The trace itself.
    pub overhead_s: f64,
    pub accounted_frac: f64,
}

impl Layers {
    /// Adds one simulated cell's modeled-side counts.
    pub fn add_report(&mut self, r: &RunReport) {
        self.cycles += r.cycles;
        self.ops += r.ops;
        self.block_accesses += r.block_accesses;
        self.events += r.events;
        self.bc_checks += r.bc_checks;
        if let Some((hits, misses)) = r.bcc_hits_misses {
            self.bcc_hits += hits;
            self.bcc_misses += misses;
        }
        self.pt_reads += r.pt_reads_writes.0;
        self.pt_writes += r.pt_reads_writes.1;
        add_pair(&mut self.l1, r.l1);
        add_pair(&mut self.l2, r.l2);
        add_pair(&mut self.l1_tlb, r.l1_tlb);
        add_pair(&mut self.iotlb, Some(r.iotlb));
        self.ats_walks += r.ats_translations_walks.1;
        self.dram_reads += r.dram_reads_writes.0;
        self.dram_writes += r.dram_reads_writes.1;
        self.dram_busy_cycles += r.dram_utilization * r.cycles as f64;
        self.minor_faults += r.minor_faults;
    }

    /// Adds one cell's host-side phase times.
    pub fn add_phases(&mut self, build: Duration, run: Duration, encode: Duration) {
        self.build_s += build.as_secs_f64();
        self.run_s += run.as_secs_f64();
        self.encode_s += encode.as_secs_f64();
    }

    /// Pool accounting for one pass: `workers × wall` against the cells'
    /// own times and the phases measured inside them. Idle is the
    /// remainder after the cells, so `accounted_frac` falls short of 1 by
    /// the time inside cells that no phase covers (dropping the machine),
    /// not by time outside them.
    pub fn set_pool(&mut self, workers: usize, wall: Duration, cell_walls: &[Duration]) {
        let capacity = workers as f64 * wall.as_secs_f64();
        let busy: f64 = cell_walls.iter().map(Duration::as_secs_f64).sum();
        self.pool_idle_s = capacity - busy;
        self.straggler_s = cell_walls
            .iter()
            .map(Duration::as_secs_f64)
            .fold(0.0, f64::max);
        self.accounted_frac = ratio(
            self.build_s + self.run_s + self.encode_s + self.pool_idle_s,
            capacity,
        );
    }

    /// Renders every per-layer metric.
    pub fn render(&self, m: &mut Metrics) {
        m.push("experiments.pool_idle_s", self.pool_idle_s, "s");
        m.push("experiments.straggler_s", self.straggler_s, "s");
        m.push("experiments.encode_s", self.encode_s, "s");
        m.push("system.build_s", self.build_s, "s");
        m.push("system.run_s", self.run_s, "s");
        m.push(
            "system.run_ns_per_event",
            ratio(self.run_s * 1e9, self.events as f64),
            "ns",
        );
        m.push("system.cycles", self.cycles as f64, "cycles");
        m.count("system.ops", self.ops);
        m.count("system.block_accesses", self.block_accesses);
        m.push("workloads.synth_s", self.synth_s, "s");
        m.count("workloads.next_op_calls", self.next_op_calls);
        m.count("sim.events", self.events);
        m.push(
            "sim.events_per_kcycle",
            ratio(self.events as f64 * 1e3, self.cycles as f64),
            "1/kcycle",
        );
        m.count("core.bc_checks", self.bc_checks);
        m.push(
            "core.bcc_miss_ratio",
            ratio(
                self.bcc_misses as f64,
                (self.bcc_hits + self.bcc_misses) as f64,
            ),
            "ratio",
        );
        m.count("core.pt_reads", self.pt_reads);
        m.count("core.pt_writes", self.pt_writes);
        m.push("cache.l1_miss_ratio", miss_ratio(self.l1), "ratio");
        m.push("cache.l2_miss_ratio", miss_ratio(self.l2), "ratio");
        m.push("cache.l1_tlb_miss_ratio", miss_ratio(self.l1_tlb), "ratio");
        m.push("iommu.iotlb_miss_ratio", miss_ratio(self.iotlb), "ratio");
        m.count("iommu.ats_walks", self.ats_walks);
        m.count("mem.dram_reads", self.dram_reads);
        m.count("mem.dram_writes", self.dram_writes);
        m.push(
            "mem.dram_utilization",
            ratio(self.dram_busy_cycles, self.cycles as f64),
            "ratio",
        );
        m.count("os.minor_faults", self.minor_faults);
        m.count("os.preempts", self.preempts);
        m.count("os.binds", self.binds);
        m.count("os.storms", self.storms);
        m.count("os.pt_zero_blocks", self.pt_zero_blocks);
        m.count("os.killed", self.killed);
        m.push("os.kill_p99_cycles", self.kill_p99_cycles, "cycles");
        m.push("serve.submit_ms", self.submit_ms, "ms");
        m.push("serve.status_ms", self.status_ms, "ms");
        m.push("serve.cell_fetch_ms", self.cell_fetch_ms, "ms");
        m.push("serve.status_polls", self.status_polls, "polls/job");
        m.push("serve.cas_get_ms", self.cas_get_ms, "ms");
        m.push("serve.runner_s", self.runner_s, "s");
        m.push("serve.cas_hit_ratio", self.cas_hit_ratio, "ratio");
        m.count("serve.cas_puts", self.cas_puts);
        m.count("serve.cas_corrupt", self.cas_corrupt);
        m.push("serve.job_miss_p50_ms", self.job_miss_p50_ms, "ms");
        m.push("fig4_paper_err", self.fig4_paper_err, "ln-ratio");
        m.push("tenant_p99_cycles", self.tenant_p99_cycles, "cycles");
        m.push("process.peak_rss_mib", self.peak_rss_mib, "MiB");
        m.push("trace.overhead_s", self.overhead_s, "s");
        m.push("trace.accounted_frac", self.accounted_frac, "ratio");
    }
}

fn add_pair(total: &mut (u64, u64), pair: Option<(u64, u64)>) {
    if let Some((accesses, misses)) = pair {
        total.0 += accesses;
        total.1 += misses;
    }
}

fn miss_ratio((accesses, misses): (u64, u64)) -> f64 {
    ratio(misses as f64, accesses as f64)
}
