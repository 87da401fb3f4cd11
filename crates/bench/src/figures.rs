//! Every table and figure of the paper's evaluation, plus the ablations
//! listed in `DESIGN.md`.
//!
//! The figure renderers that *run* simulations (the ablation sweeps,
//! recovery, mix, sharing, wear, warm) take a pool [`Options`] and fan
//! their cells out through [`sweep`], then look each result up by key;
//! renderers over an already-computed [`GridResults`] are pure
//! formatting.

use pmacc::energy::{energy_of, EnergyParams};
use pmacc::hwcost::HwOverhead;
use pmacc::recovery::{check_recovery, recover, recovery_cost};
use pmacc::scheme::sp::{self, SpMode};
use pmacc::{RunConfig, RunReport, System};
use pmacc_cpu::StallKind;
use pmacc_types::{MachineConfig, MemConfig, SchemeKind, SimError, WriteCause};
use pmacc_workloads::{build, WorkloadKind};

use crate::grid::{run_cell, run_grid_opts, sweep, GridResults, Scale};
use crate::pool::Options;
use crate::table::{norm, FigTable};

/// A named metric extracted from a [`RunReport`].
type Metric = (&'static str, fn(&RunReport) -> f64);

fn scheme_label(s: SchemeKind) -> &'static str {
    match s {
        SchemeKind::Sp => "SP",
        SchemeKind::TxCache => "TC (this work)",
        SchemeKind::NvLlc => "NVLLC",
        SchemeKind::Optimal => "Optimal",
        SchemeKind::Eadr => "eADR",
    }
}

/// Builds one normalized-to-Optimal figure.
fn normalized_figure(
    grid: &GridResults,
    id: &str,
    title: &str,
    caption: &str,
    metric: impl Fn(&RunReport) -> f64 + Copy,
) -> FigTable {
    let mut cols = vec!["workload".to_string()];
    cols.extend(SchemeKind::all().iter().map(|s| scheme_label(*s).to_string()));
    let mut t = FigTable::new(id, title, caption, cols);
    for kind in WorkloadKind::all() {
        let mut row = vec![kind.to_string()];
        for scheme in SchemeKind::all() {
            row.push(norm(grid.normalized(kind, scheme, metric)));
        }
        t.push_row(row);
    }
    let mut mean = vec!["**mean**".to_string()];
    for scheme in SchemeKind::all() {
        mean.push(norm(grid.mean_normalized(scheme, metric)));
    }
    t.push_row(mean);
    t
}

/// Figure 6: IPC normalized to Optimal.
#[must_use]
pub fn fig6(grid: &GridResults) -> FigTable {
    normalized_figure(
        grid,
        "Figure 6",
        "Performance improvements (IPC), normalized to Optimal",
        "Paper: SP 0.477, TC 0.985, NVLLC 0.878 on average.",
        RunReport::ipc,
    )
}

/// Figure 7: transaction throughput normalized to Optimal.
#[must_use]
pub fn fig7(grid: &GridResults) -> FigTable {
    normalized_figure(
        grid,
        "Figure 7",
        "Performance improvements (throughput, tx/cycle), normalized to Optimal",
        "Paper: SP 0.306, TC 0.985, NVLLC ~0.878 on average.",
        RunReport::throughput,
    )
}

/// Figure 8: LLC miss rate normalized to Optimal.
#[must_use]
pub fn fig8(grid: &GridResults) -> FigTable {
    normalized_figure(
        grid,
        "Figure 8",
        "LLC miss rate, normalized to Optimal",
        "Paper: NVLLC incurs ~6% higher LLC miss rate; TC matches Optimal.",
        RunReport::llc_miss_rate,
    )
}

/// Figure 9: NVM write traffic normalized to Optimal.
#[must_use]
pub fn fig9(grid: &GridResults) -> FigTable {
    normalized_figure(
        grid,
        "Figure 9",
        "Write traffic to the NVM, normalized to Optimal",
        "Paper: SP ~2x Optimal; TC and NVLLC in between, with TC above NVLLC.",
        |r| r.nvm_write_traffic() as f64,
    )
}

/// Figure 10: persistent-load latency normalized to Optimal.
#[must_use]
pub fn fig10(grid: &GridResults) -> FigTable {
    normalized_figure(
        grid,
        "Figure 10",
        "CPU persistent load latency, normalized to Optimal",
        "Paper: NVLLC 2.4x Optimal and 2.3x TC; TC close to Optimal.",
        RunReport::persistent_load_latency,
    )
}

/// Figure 9's write-traffic *breakdown* by cause — which mechanism each
/// scheme's NVM writes come from (per-workload totals summed over the
/// grid, absolute counts).
#[must_use]
pub fn fig9_breakdown(grid: &GridResults) -> FigTable {
    let mut cols = vec!["scheme".to_string()];
    cols.extend(WriteCause::all().iter().map(|c| c.to_string()));
    cols.push("owed (residual)".into());
    let mut t = FigTable::new(
        "Figure 9 (breakdown)",
        "NVM writes by cause, summed over the five workloads",
        "Eviction = normal write-backs; tc-drain = committed TC entries; \
         log/flush = SP's records and clwb; cow = overflow fall-back.",
        cols,
    );
    for scheme in SchemeKind::all() {
        let mut row = vec![scheme_label(scheme).to_string()];
        for cause in WriteCause::all() {
            let total: u64 = WorkloadKind::all()
                .iter()
                .map(|k| grid.get(*k, scheme).nvm_writes_by(cause))
                .sum();
            row.push(total.to_string());
        }
        let owed: u64 = WorkloadKind::all()
            .iter()
            .map(|k| grid.get(*k, scheme).residual_nvm_lines)
            .sum();
        row.push(owed.to_string());
        t.push_row(row);
    }
    t
}

/// The §5.2 transaction-cache stall claim: per-workload fraction of time
/// stalled on a full transaction cache (paper: only `sps`, 0.67%).
#[must_use]
pub fn stalls(grid: &GridResults) -> FigTable {
    let mut t = FigTable::new(
        "§5.2 stalls",
        "Fraction of execution time the CPU stalls on a full transaction cache",
        "Paper: with a 4 KB TC per core, only sps stalls (0.67% of time).",
        vec![
            "workload".into(),
            "TC-full stall fraction".into(),
            "COW overflows".into(),
        ],
    );
    for kind in WorkloadKind::all() {
        let r = grid.get(kind, SchemeKind::TxCache);
        t.push_row(vec![
            kind.to_string(),
            format!("{:.4}%", r.stall_fraction(StallKind::TxCacheFull) * 100.0),
            r.tc_overflows().to_string(),
        ]);
    }
    t
}

/// Extension: energy accounting of the grid (write traffic priced by the
/// STT-RAM energy asymmetry — the Figure 9 story in nanojoules).
#[must_use]
pub fn energy(grid: &GridResults) -> FigTable {
    let params = EnergyParams::dac17();
    normalized_figure(
        grid,
        "Extension: energy",
        "Memory-system energy, normalized to Optimal",
        "Caches + transaction cache + DRAM + NVM, with STT-RAM's ~4x \
         write/read energy asymmetry; SP's logging and flushing dominate.",
        |r: &RunReport| energy_of(r, &params).total_nj(),
    )
}

/// Extension: NVM write endurance — how hard each scheme hammers its
/// hottest line (NVM cells wear out; a persistence path that rewrites
/// the same line per transaction ages it fastest).
#[must_use]
pub fn endurance(grid: &GridResults) -> FigTable {
    let mut t = FigTable::new(
        "Extension: endurance",
        "NVM wear profile (rbtree + sps, device writes per line)",
        "Hottest-line writes and mean writes per written line; the TC \
         drains every committed store, so hot structure lines (roots, \
         headers) wear faster than under Optimal's cache coalescing.",
        vec![
            "workload / scheme".into(),
            "hottest line writes".into(),
            "mean writes/line".into(),
            "total device writes".into(),
        ],
    );
    for kind in [WorkloadKind::Rbtree, WorkloadKind::Sps] {
        for scheme in SchemeKind::all() {
            let r = grid.get(kind, scheme);
            let hottest = r.nvm.hottest_line().map_or(0, |(_, n)| n);
            t.push_row(vec![
                format!("{kind} / {}", scheme_label(scheme)),
                hottest.to_string(),
                format!("{:.2}", r.nvm.mean_writes_per_line()),
                r.nvm.writes().to_string(),
            ]);
        }
    }
    t
}

/// Extension: recovery cost after a mid-run crash, per scheme
/// (quantifies §3's "recover using the buffered writes" claim).
///
/// # Errors
///
/// Returns the first simulation error.
pub fn recovery_table(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let mut t = FigTable::new(
        "Extension: recovery",
        "Crash-recovery cost at 50% of an rbtree run",
        "Scan = durable words read (log walk / TC read-out / LLC tag \
         walk); replay = NVM words rewritten. The checker verifies each \
         recovered image is transaction-atomic.",
        vec![
            "scheme".into(),
            "words scanned".into(),
            "words replayed".into(),
            "est. recovery time".into(),
            "consistent?".into(),
        ],
    );
    // Each scheme's pair of runs (full, then crashed halfway) is one
    // cell; the two runs within a cell stay sequential because the crash
    // point depends on the full run's cycle count.
    let rows = sweep(
        SchemeKind::all(),
        seed,
        opts,
        |scheme| format!("recovery/{scheme}"),
        move |&scheme| {
            let machine = scale.machine().with_scheme(scheme);
            let params = scale.params(seed);
            let total = run_cell(machine.clone(), WorkloadKind::Rbtree, scale, seed)?.cycles;
            let mut sys = System::for_workload(
                machine.clone(),
                WorkloadKind::Rbtree,
                &params,
                &RunConfig::default(),
            )?;
            sys.run_until(total / 2)?;
            let state = sys.crash_state();
            let ok = check_recovery(&state, &recover(&state)).is_ok();
            Ok::<_, SimError>((recovery_cost(&state, &machine), ok))
        },
    )?;
    for scheme in SchemeKind::all() {
        let (cost, ok) = &rows[&scheme];
        t.push_row(vec![
            scheme_label(scheme).into(),
            cost.words_scanned.to_string(),
            cost.words_replayed.to_string(),
            format!("{:.1} µs", cost.estimated_ns as f64 / 1000.0),
            if *ok { "yes" } else { "NO (by design)" }.into(),
        ]);
    }
    Ok(t)
}

/// Extension: a heterogeneous multiprogrammed mix — one different
/// benchmark per core (graph, rbtree, sps, btree), the workload shape
/// shared-LLC studies use.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn mix(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let kinds = [
        WorkloadKind::Graph,
        WorkloadKind::Rbtree,
        WorkloadKind::Sps,
        WorkloadKind::Btree,
    ];
    let mut t = FigTable::new(
        "Extension: mix",
        "Heterogeneous 4-core mix (graph + rbtree + sps + btree)",
        "Each core runs a different benchmark; schemes normalized to \
         Optimal on the same mix.",
        vec![
            "scheme".into(),
            "IPC (norm)".into(),
            "throughput (norm)".into(),
            "NVM writes (norm)".into(),
            "p-load latency (norm)".into(),
        ],
    );
    let schemes = [
        SchemeKind::Optimal,
        SchemeKind::Sp,
        SchemeKind::TxCache,
        SchemeKind::NvLlc,
    ];
    let reports = sweep(
        schemes,
        seed,
        opts,
        |scheme| format!("mix/{scheme}"),
        move |&scheme| {
            let machine = scale.machine().with_scheme(scheme);
            System::for_workload_mix(machine, &kinds, &scale.params(seed), &RunConfig::default())?
                .run()
        },
    )?;
    let b = &reports[&SchemeKind::Optimal];
    for scheme in schemes {
        let r = &reports[&scheme];
        t.push_row(vec![
            scheme_label(scheme).into(),
            norm(r.ipc() / b.ipc()),
            norm(r.throughput() / b.throughput()),
            norm(r.nvm_write_traffic() as f64 / b.nvm_write_traffic().max(1) as f64),
            norm(r.persistent_load_latency() / b.persistent_load_latency()),
        ]);
    }
    Ok(t)
}

/// Extension: sharing sweep — per-scheme scaling curves as a growing
/// fraction of each core's persistent-heap lines is drawn from a pool
/// shared by every core (0, 12.5, 25, 50%), on the conflict-sensitive
/// workloads. The 0% column must reproduce the private-working-set
/// numbers exactly: the MESI layer is inert until cores actually share
/// lines. The conflict columns count transactional stores serialized
/// against a remote core's active transaction, snoop invalidations of
/// remote cached copies, and remote invalidations that hit a buffered
/// transaction-cache line (the §4 decoupling: the TC entry survives).
///
/// # Errors
///
/// Returns the first simulation error.
pub fn sharing(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    const FRACTIONS: [u8; 4] = [0, 1, 2, 4];
    const KINDS: [WorkloadKind; 3] = [
        WorkloadKind::Sps,
        WorkloadKind::Btree,
        WorkloadKind::Hashtable,
    ];
    // Directory-stress subsection: the SPS workload at 16 cores, where
    // the LLC sharer-bitmap directory is what keeps snoops O(sharers)
    // instead of O(cores). Two fractions bracket the range (private vs
    // heavily shared); every scheme runs so the normalized IPC column has
    // its own 16-core Optimal base.
    const DIR_CORES: usize = 16;
    const DIR_FRACTIONS: [u8; 2] = [0, 4];
    let cores = scale.machine().cores;
    // Keys are (cores, workload, fraction in eighths, scheme).
    let keys = KINDS
        .into_iter()
        .flat_map(|kind| FRACTIONS.map(|fraction| (cores, kind, fraction)))
        .chain(DIR_FRACTIONS.map(|fraction| (DIR_CORES, WorkloadKind::Sps, fraction)))
        .flat_map(|(c, kind, fraction)| SchemeKind::all().map(|s| (c, kind, fraction, s)));
    let results = sweep(
        keys,
        seed,
        opts,
        |(cores, kind, fraction, scheme)| format!("sharing/{kind}/{cores}c/sh{fraction}/{scheme}"),
        move |&(cores, kind, fraction, scheme)| {
            let mut machine = scale.machine().with_scheme(scheme);
            machine.cores = cores;
            let mut params = scale.params(seed);
            params.sharing = fraction;
            System::for_workload(machine, kind, &params, &RunConfig::default())?.run()
        },
    )?;
    let mut t = FigTable::new(
        "Extension: sharing",
        "Scaling across shared-line fractions (4 cores; sps also at 16)",
        "IPC normalized to Optimal on the same workload, fraction and \
         core count; conflict columns are raw event counts summed over \
         cores.",
        vec![
            "workload".into(),
            "sharing".into(),
            "scheme".into(),
            "IPC (norm)".into(),
            "tx conflicts".into(),
            "conflict stall".into(),
            "snoop invals".into(),
            "shared fills".into(),
            "TC remote invals".into(),
        ],
    );
    // The conflict columns: tx conflicts, snoop invals, shared fills and
    // TC remote invals.
    let counts = |r: &RunReport| -> [u64; 4] {
        [
            r.cores.iter().map(|c| c.tx_conflicts.value()).sum(),
            r.hierarchy.coherence.remote_invalidations.value(),
            r.hierarchy.coherence.shared_fills.value(),
            r.tc.iter().map(|c| c.remote_invalidations.value()).sum(),
        ]
    };
    // IPC normalized to Optimal at the same cores, workload and fraction.
    let ipc_norm = |key @ (cores, kind, fraction, _)| {
        let base = results[&(cores, kind, fraction, SchemeKind::Optimal)].ipc();
        if base == 0.0 { 0.0 } else { results[&key].ipc() / base }
    };
    // One row function for the per-cell, mean and 16-core rows.
    let row = |workload: String,
               fraction: u8,
               scheme: SchemeKind,
               ipc: f64,
               stall: String,
               [cf, inv, fills, tcr]: [u64; 4]| {
        vec![
            workload,
            format!("{}%", f64::from(fraction) * 12.5),
            scheme_label(scheme).into(),
            norm(ipc),
            cf.to_string(),
            stall,
            inv.to_string(),
            fills.to_string(),
            tcr.to_string(),
        ]
    };
    let cell_row = |workload: String, key @ (_, _, fraction, scheme)| {
        let r = &results[&key];
        row(
            workload,
            fraction,
            scheme,
            ipc_norm(key),
            format!("{:.4}%", r.stall_fraction(StallKind::Conflict) * 100.0),
            counts(r),
        )
    };
    for kind in KINDS {
        for fraction in FRACTIONS {
            for scheme in SchemeKind::all() {
                t.push_row(cell_row(kind.to_string(), (cores, kind, fraction, scheme)));
            }
        }
    }
    // Per-fraction means: the scaling curve of each scheme (counts are
    // summed over the three workloads).
    for fraction in FRACTIONS {
        for scheme in SchemeKind::all() {
            let ipc: f64 = KINDS.iter().map(|&k| ipc_norm((cores, k, fraction, scheme))).sum();
            let sum = KINDS.iter().fold([0u64; 4], |sum, &kind| {
                let c = counts(&results[&(cores, kind, fraction, scheme)]);
                std::array::from_fn(|i| sum[i] + c[i])
            });
            let n = KINDS.len() as f64;
            t.push_row(row("**mean**".into(), fraction, scheme, ipc / n, "-".into(), sum));
        }
    }
    // 16-core directory-stress rows.
    for fraction in DIR_FRACTIONS {
        for scheme in SchemeKind::all() {
            let key = (DIR_CORES, WorkloadKind::Sps, fraction, scheme);
            t.push_row(cell_row("sps (16c)".into(), key));
        }
    }
    Ok(t)
}

/// Renders a projected lifetime (seconds of simulated write rate until
/// the hottest cell exhausts its budget) as a human-readable duration.
/// Quick-scale projections are tiny — the *ratio between schemes* is
/// the story, not the absolute value.
fn fmt_lifetime(s: f64) -> String {
    if !s.is_finite() {
        return "-".into();
    }
    const YEAR: f64 = 365.25 * 86_400.0;
    if s >= YEAR {
        format!("{:.2} y", s / YEAR)
    } else if s >= 86_400.0 {
        format!("{:.2} d", s / 86_400.0)
    } else if s >= 3_600.0 {
        format!("{:.2} h", s / 3_600.0)
    } else if s >= 60.0 {
        format!("{:.2} min", s / 60.0)
    } else if s >= 1.0 {
        format!("{:.2} s", s)
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

/// Renders a count of workload executions (the ideal-leveling lifetime
/// projection) with an engineering suffix.
fn fmt_runs(r: f64) -> String {
    if !r.is_finite() {
        return "-".into();
    }
    if r >= 1e9 {
        format!("{:.1}G", r / 1e9)
    } else if r >= 1e6 {
        format!("{:.1}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k", r / 1e3)
    } else {
        format!("{r:.0}")
    }
}

/// Extension: NVM endurance under each scheme, with and without
/// start-gap wear leveling. Two distinct endurance stories emerge:
/// *total traffic* (fig9: SP's logging writes a multiple of TC's NVM
/// traffic, so its ideal-leveled lifetime is proportionally shorter)
/// and *concentration* (TC drains every committed store, so hot
/// structure lines — tree roots, headers — take orders of magnitude
/// more wear than the mean). The leveling-off rows are the ablation
/// baseline: turning the remapper on collapses the max/mean imbalance
/// by rotating hot lines across device rows, at the cost of the
/// relocation writes in the `relocations` column.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn wear(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    use pmacc_types::WearConfig;
    const KINDS: [WorkloadKind; 3] = [
        WorkloadKind::Sps,
        WorkloadKind::Rbtree,
        WorkloadKind::Hashtable,
    ];
    const LEVELS: [bool; 2] = [false, true];
    let budget = WearConfig::start_gap().cell_write_budget;
    // Tighter rotation than the `start_gap()` defaults: these runs are
    // short, and the gap must sweep each region several times before the
    // run ends for the ablation to show — a hot line only sheds wear
    // when the gap passes it, once per `region_lines *
    // gap_write_interval` region writes.
    let leveled = WearConfig {
        leveling: true,
        region_lines: 32,
        gap_write_interval: 4,
        cell_write_budget: budget,
    };
    let lvl_label = |l: bool| if l { "on" } else { "off" };
    let mut keys = Vec::new();
    for kind in KINDS {
        for leveling in LEVELS {
            keys.extend(SchemeKind::all().map(|scheme| (kind, leveling, scheme)));
        }
    }
    let results = sweep(
        keys,
        seed,
        opts,
        |&(kind, leveling, scheme)| format!("wear/{kind}/wl-{}/{scheme}", lvl_label(leveling)),
        move |&(kind, leveling, scheme)| {
            let mut machine = scale.machine().with_scheme(scheme);
            if leveling {
                machine.nvm.wear = leveled;
            }
            run_cell(machine, kind, scale, seed)
        },
    )?;
    let mut t = FigTable::new(
        "Extension: wear",
        "NVM endurance and start-gap wear leveling, per scheme",
        format!(
            "Device writes per line with wear leveling off vs on \
             (start-gap, {} lines per region, gap rotation every {} \
             demand writes). Imbalance = max/mean writes-per-line — the \
             off rows are the ablation baseline the leveler collapses. \
             Hot-line lifetime extrapolates the hottest line's measured \
             write rate against a {budget}-write cell budget; leveled \
             lifetime is the ideal-leveling bound in workload \
             executions (budget x footprint / write traffic), so its \
             ratio between schemes is fig9's NVM-write ratio. \
             Relocations are the leveler's own copy writes.",
            leveled.region_lines, leveled.gap_write_interval,
        ),
        vec![
            "workload".into(),
            "scheme".into(),
            "leveling".into(),
            "NVM writes".into(),
            "max w/line".into(),
            "p99 w/line".into(),
            "mean w/line".into(),
            "imbalance".into(),
            "relocations".into(),
            "hot-line lifetime".into(),
            "leveled lifetime (runs)".into(),
        ],
    );
    let hot_lifetime = |r: &RunReport| {
        pmacc_mem::projected_lifetime_seconds(
            r.nvm.max_writes_per_line(),
            r.cycles,
            pmacc_types::Freq::default(),
            budget,
        )
    };
    for kind in KINDS {
        for leveling in LEVELS {
            for scheme in SchemeKind::all() {
                let r = &results[&(kind, leveling, scheme)];
                t.push_row(vec![
                    kind.to_string(),
                    scheme_label(scheme).into(),
                    lvl_label(leveling).into(),
                    r.nvm.writes().to_string(),
                    r.nvm.max_writes_per_line().to_string(),
                    r.nvm.p99_writes_per_line().to_string(),
                    format!("{:.2}", r.nvm.mean_writes_per_line()),
                    format!("{:.1}", r.nvm.wear_imbalance()),
                    r.nvm.relocation_writes.value().to_string(),
                    fmt_lifetime(hot_lifetime(r)),
                    fmt_runs(pmacc_mem::projected_lifetime_runs(
                        r.nvm.writes(),
                        r.nvm.lines_written(),
                        budget,
                    )),
                ]);
            }
        }
    }
    // Per-scheme means across workloads: the lifetime delta between
    // schemes (and the off→on imbalance collapse) at a glance. The
    // leveled-lifetime mean pools traffic and footprint across
    // workloads rather than averaging ratios.
    for leveling in LEVELS {
        for scheme in SchemeKind::all() {
            let (mut writes, mut lines, mut max_w) = (0u64, 0u64, 0u64);
            let (mut imb, mut life) = (0.0f64, 0.0f64);
            for kind in KINDS {
                let r = &results[&(kind, leveling, scheme)];
                writes += r.nvm.writes();
                lines += r.nvm.lines_written();
                max_w = max_w.max(r.nvm.max_writes_per_line());
                imb += r.nvm.wear_imbalance();
                life += hot_lifetime(r);
            }
            let n = KINDS.len() as f64;
            t.push_row(vec![
                "**mean**".into(),
                scheme_label(scheme).into(),
                lvl_label(leveling).into(),
                writes.to_string(),
                max_w.to_string(),
                "-".into(),
                "-".into(),
                format!("{:.1}", imb / n),
                "-".into(),
                fmt_lifetime(life / n),
                fmt_runs(pmacc_mem::projected_lifetime_runs(writes, lines, budget)),
            ]);
        }
    }
    Ok(t)
}

/// Extension: the grid measured after a cache warm-up (the first quarter
/// of each run's transactions excluded from statistics). Contrast with
/// the cold-start figures: warm LLC miss rates expose the NVLLC pinning
/// pressure better.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn warm(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let params = scale.params(seed);
    let warmup = (params.num_ops as u64 * scale.machine().cores as u64) / 4;
    let rc = RunConfig {
        warmup_commits: warmup,
        ..RunConfig::default()
    };
    let grid = run_grid_opts(scale, seed, &rc, opts)?;
    let schemes = [SchemeKind::Sp, SchemeKind::TxCache, SchemeKind::NvLlc];
    let mut t = FigTable::new(
        "Extension: warm",
        format!(
            "Grid means measured after a {warmup}-transaction warm-up"
        ),
        "Normalized to Optimal, as in Figures 6-10 but excluding the \
         cold-cache region.",
        std::iter::once("metric")
            .chain(schemes.map(scheme_label))
            .map(String::from)
            .collect(),
    );
    let metrics: [Metric; 4] = [
        ("IPC", RunReport::ipc),
        ("throughput", RunReport::throughput),
        ("LLC miss rate", RunReport::llc_miss_rate),
        ("persistent load latency", RunReport::persistent_load_latency),
    ];
    for (name, metric) in metrics {
        let mut row = vec![name.to_string()];
        row.extend(schemes.map(|s| norm(grid.mean_normalized(s, metric))));
        t.push_row(row);
    }
    Ok(t)
}

/// Table 1: hardware overhead of the accelerator.
#[must_use]
pub fn table1(machine: &MachineConfig) -> FigTable {
    let hw = HwOverhead::for_machine(machine);
    let mut t = FigTable::new(
        "Table 1",
        "Summary of major hardware overhead",
        format!(
            "Total TC capacity {} KB across {} cores ({:.3}% of the LLC); \
             +{} bit/line in the existing hierarchy, +{} bits/line in the TC array.",
            hw.total_tc_bytes() / 1024,
            hw.cores,
            hw.tc_vs_llc(machine) * 100.0,
            hw.bits_per_hierarchy_line(),
            hw.bits_per_tc_line()
        ),
        vec![
            "component".into(),
            "type".into(),
            "bits/instance".into(),
            "instances".into(),
            "total bits".into(),
        ],
    );
    for row in &hw.rows {
        t.push_row(vec![
            row.component.to_string(),
            row.kind.to_string(),
            row.bits_per_instance.to_string(),
            row.instances.to_string(),
            row.total_bits().to_string(),
        ]);
    }
    t
}

/// Table 2: machine configuration.
#[must_use]
pub fn table2(machine: &MachineConfig) -> FigTable {
    let mut t = FigTable::new(
        "Table 2",
        "Machine configuration",
        "The paper's machine; the figure grid uses the capacity-scaled \
         variant (see EXPERIMENTS.md).",
        vec!["device".into(), "description".into()],
    );
    let c = machine;
    t.push_row(vec![
        "CPU".into(),
        format!(
            "{} cores, {}, {}-issue, out of order (trace-driven)",
            c.cores, c.core.freq, c.core.issue_width
        ),
    ]);
    for (name, cfg, shared) in [
        ("L1 I/D", &c.l1, false),
        ("L2", &c.l2, false),
        ("L3 (LLC)", &c.llc, true),
    ] {
        let size = if cfg.size_bytes >= 1024 * 1024 {
            format!("{} MB", cfg.size_bytes / (1024 * 1024))
        } else {
            format!("{} KB", cfg.size_bytes / 1024)
        };
        t.push_row(vec![
            name.into(),
            format!(
                "{}, {}{}, {} ns, {}-way",
                if shared { "Shared" } else { "Private" },
                size,
                if shared { "" } else { "/core" },
                cfg.latency_ns,
                cfg.ways
            ),
        ]);
    }
    t.push_row(vec![
        "Transaction cache".into(),
        format!(
            "Private, {} KB/core, fully-associative CAM FIFO (STTRAM), {} ns, \
             overflow at {:.0}%",
            c.txcache.size_bytes / 1024,
            c.txcache.latency_ns,
            c.txcache.overflow_threshold * 100.0
        ),
    ]);
    t.push_row(vec![
        "Memory controllers".into(),
        format!(
            "{}/{}-entry read/write queue, 2 controllers, read-first or \
             write drain when the write queue is {:.0}% full",
            c.nvm.read_queue,
            c.nvm.write_queue,
            c.nvm.drain_high * 100.0
        ),
    ]);
    t.push_row(vec![
        "NVM memory (STTRAM)".into(),
        format!(
            "{} ranks, {} banks/rank, {}-ns read, {}-ns write",
            c.nvm.ranks, c.nvm.banks_per_rank, c.nvm.read_ns, c.nvm.write_ns
        ),
    ]);
    t.push_row(vec![
        "DRAM memory".into(),
        format!(
            "DDR3, {} ranks, {} banks/rank, {}-ns access",
            c.dram.ranks, c.dram.banks_per_rank, c.dram.read_ns
        ),
    ]);
    t
}

/// Table 3: workloads, with measured trace statistics at the given scale.
#[must_use]
pub fn table3(scale: Scale, seed: u64) -> FigTable {
    let mut t = FigTable::new(
        "Table 3",
        "Workloads",
        "Five benchmarks similar to the NV-heaps suite; all key-value \
         fields are 64 bits. Trace statistics measured per core instance.",
        vec![
            "name".into(),
            "description".into(),
            "ops/tx (mean)".into(),
            "stores/tx (mean)".into(),
            "write-set p99/max".into(),
            "memory footprint".into(),
        ],
    );
    for kind in WorkloadKind::all() {
        let w = build(kind, &scale.params(seed));
        let txs = w.trace.transactions().max(1);
        let stores = w.trace.ops().iter().filter(|o| o.is_store()).count() as u64;
        let footprint = w.final_image.len() as u64 * 8;
        let mut sizes = w.trace.tx_store_counts();
        sizes.sort_unstable();
        let p99 = sizes[(sizes.len() * 99 / 100).min(sizes.len() - 1)];
        let max = sizes.last().copied().unwrap_or(0);
        t.push_row(vec![
            kind.to_string(),
            kind.description().to_string(),
            format!("{:.1}", w.trace.op_count() as f64 / txs as f64),
            format!("{:.1}", stores as f64 / txs as f64),
            format!("{p99}/{max}"),
            format!("{:.1} MB", footprint as f64 / (1024.0 * 1024.0)),
        ]);
    }
    t
}

/// Ablation A: transaction-cache capacity sweep (the §3 "capacity can be
/// flexibly configured" claim).
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ablation_txcache_size(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let mut t = FigTable::new(
        "Ablation A",
        "Transaction-cache capacity sweep (TC scheme)",
        "IPC normalized to the 4 KB configuration; stall fraction and \
         overflow events per size, for the two most TC-hungry workloads.",
        vec![
            "TC size".into(),
            "sps IPC (vs 4 KB)".into(),
            "sps stall%".into(),
            "sps overflows".into(),
            "rbtree IPC (vs 4 KB)".into(),
            "rbtree stall%".into(),
            "rbtree overflows".into(),
        ],
    );
    let sizes: [u64; 6] = [512, 1024, 2048, 4096, 8192, 16384];
    let kinds = [WorkloadKind::Sps, WorkloadKind::Rbtree];
    let reports = sweep(
        sizes.into_iter().flat_map(|size| kinds.map(|kind| (size, kind))),
        seed,
        opts,
        |(size, kind)| format!("tc-size {size} B/{kind}"),
        move |&(size, kind)| {
            let mut machine = scale.machine().with_scheme(SchemeKind::TxCache);
            machine.txcache.size_bytes = size;
            run_cell(machine, kind, scale, seed)
        },
    )?;
    let b_sps = reports[&(4096, WorkloadKind::Sps)].ipc();
    let b_rb = reports[&(4096, WorkloadKind::Rbtree)].ipc();
    for size in sizes {
        let sps = &reports[&(size, WorkloadKind::Sps)];
        let rb = &reports[&(size, WorkloadKind::Rbtree)];
        t.push_row(vec![
            format!("{} B", size),
            norm(sps.ipc() / b_sps),
            format!("{:.3}%", sps.stall_fraction(StallKind::TxCacheFull) * 100.0),
            sps.tc_overflows().to_string(),
            norm(rb.ipc() / b_rb),
            format!("{:.3}%", rb.stall_fraction(StallKind::TxCacheFull) * 100.0),
            rb.tc_overflows().to_string(),
        ]);
    }
    Ok(t)
}

/// Ablation B: overflow-threshold sweep on a deliberately small TC.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ablation_overflow(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let mut t = FigTable::new(
        "Ablation B",
        "Overflow (COW fall-back) threshold sweep, 512 B TC, rbtree",
        "The §4.1 fall-back triggers once the TC is 'almost filled'; the \
         sweep shows the stall/overflow trade-off around the 90% default.",
        vec![
            "threshold".into(),
            "IPC".into(),
            "TC-full stall%".into(),
            "overflows".into(),
            "COW NVM writes".into(),
        ],
    );
    // Thresholds in percent of TC capacity.
    let reports = sweep(
        [50u32, 70, 90, 100],
        seed,
        opts,
        |pct| format!("overflow {pct}%/rbtree"),
        move |&pct| {
            let mut machine = scale.machine().with_scheme(SchemeKind::TxCache);
            machine.txcache.size_bytes = 512;
            machine.txcache.overflow_threshold = f64::from(pct) / 100.0;
            run_cell(machine, WorkloadKind::Rbtree, scale, seed)
        },
    )?;
    for (pct, r) in &reports {
        t.push_row(vec![
            format!("{pct}%"),
            format!("{:.4}", r.ipc()),
            format!("{:.3}%", r.stall_fraction(StallKind::TxCacheFull) * 100.0),
            r.tc_overflows().to_string(),
            r.nvm_writes_by(WriteCause::Cow).to_string(),
        ]);
    }
    Ok(t)
}

/// Ablation C: NVM write-latency sensitivity.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ablation_nvm_latency(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let mut t = FigTable::new(
        "Ablation C",
        "NVM technology sensitivity (rbtree)",
        "TC and SP IPC normalized to Optimal at each device latency \
         (STT-RAM write sweep plus a PCM point); the TC advantage grows \
         as writes slow because its persistent path is off the execution \
         critical path.",
        vec![
            "NVM device".into(),
            "SP (norm)".into(),
            "TC (norm)".into(),
            "NVLLC (norm)".into(),
        ],
    );
    // A device point is an STT-RAM write latency in ns, or `None` for PCM.
    let device = move |point: Option<u32>| match point {
        Some(write_ns) => {
            let mut nvm = scale.machine().nvm;
            nvm.write_ns = f64::from(write_ns);
            (format!("STT-RAM {write_ns} ns"), nvm)
        }
        None => ("PCM 85/350 ns".to_string(), MemConfig::pcm()),
    };
    let points = [Some(38), Some(76), Some(152), Some(304), None];
    let schemes = [
        SchemeKind::Optimal,
        SchemeKind::Sp,
        SchemeKind::TxCache,
        SchemeKind::NvLlc,
    ];
    let reports = sweep(
        points.into_iter().flat_map(|p| schemes.map(|s| (p, s))),
        seed,
        opts,
        |&(point, scheme)| format!("nvm {}/{scheme}", device(point).0),
        move |&(point, scheme)| {
            let mut machine = scale.machine().with_scheme(scheme);
            machine.nvm = device(point).1;
            run_cell(machine, WorkloadKind::Rbtree, scale, seed)
        },
    )?;
    for point in points {
        let opt = reports[&(point, SchemeKind::Optimal)].ipc();
        let mut row = vec![device(point).0];
        row.extend(schemes[1..].iter().map(|s| norm(reports[&(point, *s)].ipc() / opt)));
        t.push_row(row);
    }
    Ok(t)
}

/// Ablation D: within-transaction write coalescing in the TC (the paper
/// keeps one entry per store).
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ablation_coalesce(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let mut t = FigTable::new(
        "Ablation D",
        "Within-transaction coalescing in the transaction cache (btree)",
        "Coalescing merges same-line stores of one transaction into one \
         entry, trading CAM complexity for capacity and drain traffic.",
        vec![
            "coalescing".into(),
            "IPC".into(),
            "TC drain writes".into(),
            "TC inserts".into(),
            "coalesced".into(),
            "overflows".into(),
        ],
    );
    let reports = sweep(
        [false, true],
        seed,
        opts,
        |&coalesce| format!("coalesce {}/btree", if coalesce { "on" } else { "off" }),
        move |&coalesce| {
            let mut machine = scale.machine().with_scheme(SchemeKind::TxCache);
            machine.txcache.coalesce = coalesce;
            run_cell(machine, WorkloadKind::Btree, scale, seed)
        },
    )?;
    for (&coalesce, r) in &reports {
        let inserts: u64 = r.tc.iter().map(|s| s.inserts.value()).sum();
        let coalesced: u64 = r.tc.iter().map(|s| s.coalesced.value()).sum();
        t.push_row(vec![
            if coalesce { "on" } else { "off (paper)" }.into(),
            format!("{:.4}", r.ipc()),
            r.nvm_writes_by(WriteCause::TxCacheDrain).to_string(),
            inserts.to_string(),
            coalesced.to_string(),
            r.tc_overflows().to_string(),
        ]);
    }
    Ok(t)
}

/// Ablation E: SP fence placement — strict per-record ordering (Figure
/// 2(b)) versus the batched Figure 3(a) listing.
///
/// # Errors
///
/// Returns the first simulation error.
pub fn ablation_sp_fencing(scale: Scale, seed: u64, opts: &Options) -> Result<FigTable, SimError> {
    let mut t = FigTable::new(
        "Ablation E",
        "SP write-order control: strict vs batched fencing (sps)",
        "Batched = the Figure 3(a) listing (default SP); strict = clwb+\
         sfence per record plus post-commit data flushing (Figure 2(b)).",
        vec![
            "fencing".into(),
            "IPC (vs Optimal)".into(),
            "throughput (vs Optimal)".into(),
            "NVM writes (vs Optimal)".into(),
        ],
    );
    // Keys are (scheme, strict fencing): the Optimal baseline and the
    // default (batched) SP row are plain grid cells; the strict row
    // instruments the same raw per-core traces with the Figure 2(b)
    // fence placement.
    let keys = [
        (SchemeKind::Optimal, false),
        (SchemeKind::Sp, false),
        (SchemeKind::Sp, true),
    ];
    let reports = sweep(
        keys,
        seed,
        opts,
        |&(scheme, strict)| {
            let mode = if strict { " strict" } else { "" };
            format!("sp-fencing {scheme}{mode}/sps")
        },
        move |&(scheme, strict)| {
            let machine = scale.machine().with_scheme(scheme);
            if !strict {
                return run_cell(machine, WorkloadKind::Sps, scale, seed);
            }
            let kinds = vec![WorkloadKind::Sps; machine.cores];
            let (raw, initial) = pmacc::strided_workloads(&kinds, &scale.params(seed))?;
            let traces = raw
                .iter()
                .enumerate()
                .map(|(core, trace)| sp::instrument_with(core, trace, SpMode::Strict))
                .collect();
            System::new_instrumented(machine, traces, &initial, &RunConfig::default())?.run()
        },
    )?;
    let opt = &reports[&(SchemeKind::Optimal, false)];
    for (label, strict) in [("batched (Fig. 3a, default)", false), ("strict (Fig. 2b)", true)] {
        let r = &reports[&(SchemeKind::Sp, strict)];
        t.push_row(vec![
            label.into(),
            norm(r.ipc() / opt.ipc()),
            norm(r.throughput() / opt.throughput()),
            norm(r.nvm_write_traffic() as f64 / opt.nvm_write_traffic() as f64),
        ]);
    }
    Ok(t)
}
