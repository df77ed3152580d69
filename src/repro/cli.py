"""Command-line interface: ``python -m repro <command>``.

The CLI parses flags and looks up preset and scenario names; every other
check belongs to the library it calls.  Exit codes: 0 ok, 1 the run
failed (or the planner found no feasible config), 2 the configuration
was rejected (a :class:`~repro.errors.ConfigError`, printed as one line
on stderr).

Commands
--------
``info``     package, cluster-preset and experiment inventory
``matmul``   run one verified Tesseract matmul on a simulated cluster
``tables``   regenerate Table 1 / Table 2 (paper vs simulated)
``fig7``     run the Figure 7 exactness experiment
``transfers``  print the §1/§3.1 communication-count comparison
``chaos``    train under injected faults and report recovery metrics
``serve``    simulate inference serving; report TTFT/TPOT/goodput SLOs
``plan``     auto-parallel planner: rank (dp, pp, scheme, d, M) configs
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigError
from repro.version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tesseract (ICPP '22) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package and experiment inventory")

    p_mm = sub.add_parser("matmul", help="one verified Tesseract matmul")
    p_mm.add_argument("--q", type=int, default=2, help="grid dimension")
    p_mm.add_argument("--d", type=int, default=2, help="grid depth")
    p_mm.add_argument("--n", type=int, default=64,
                      help="global (square-ish) matrix dimension")

    p_tab = sub.add_parser("tables", help="regenerate Table 1 / Table 2")
    p_tab.add_argument("--table", choices=["1", "2", "all"], default="all")
    p_tab.add_argument("--seq-len", type=int, default=None)
    p_tab.add_argument("--layers", type=int, default=None)
    p_tab.add_argument("--json", metavar="PATH", default=None,
                       help="also save measurements as JSON")
    p_tab.add_argument("--csv", metavar="PATH", default=None,
                       help="also save measurements as CSV")

    p_fig = sub.add_parser("fig7", help="the Figure 7 exactness experiment")
    p_fig.add_argument("--epochs", type=int, default=4)

    sub.add_parser("transfers", help="§1/§3.1 transfer-count comparison")

    p_chaos = sub.add_parser(
        "chaos", help="train under injected faults; report recovery metrics"
    )
    p_chaos.add_argument("--scenario", default="all",
                         help="scenario name from the active set, or 'all'")
    p_chaos.add_argument("--elastic", action="store_true",
                         help="run the elastic-recovery scenario set "
                              "(permanent rank/node loss, spares, "
                              "crash-during-recovery, node repair with "
                              "grow-back, spare arrival, straggler "
                              "quarantine)")
    p_chaos.add_argument("--json", metavar="PATH", default=None,
                         help="also save the metrics as JSON")

    p_srv = sub.add_parser(
        "serve", help="simulate inference serving; report SLO metrics"
    )
    p_srv.add_argument("--mode", default="serial",
                       choices=["serial", "megatron", "optimus", "tesseract"])
    p_srv.add_argument("--q", type=int, default=2, help="grid dimension")
    p_srv.add_argument("--d", type=int, default=1, help="grid depth")
    p_srv.add_argument("--world", type=int, default=4,
                       help="megatron group size")
    p_srv.add_argument("--requests", type=int, default=16)
    p_srv.add_argument("--rate", type=float, default=64.0,
                       help="mean arrivals per simulated second")
    p_srv.add_argument("--policy", default="both",
                       choices=["continuous", "static", "both"])
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument("--slots", type=int, default=8,
                       help="decode batch slots")
    p_srv.add_argument("--kv-budget", type=int, default=1024,
                       help="KV cache budget in tokens")
    p_srv.add_argument("--kv-block", type=int, default=0, metavar="TOKENS",
                       help="paged KV cache block size (0 = contiguous "
                            "cache; requires --policy continuous)")
    p_srv.add_argument("--chunk", type=int, default=0, metavar="TOKENS",
                       help="max prompt tokens prefilled per frame "
                            "(chunked prefill; requires --kv-block)")
    p_srv.add_argument("--spec-k", type=int, default=0,
                       help="speculative-decode draft length (0 = off; "
                            "requires --kv-block)")
    p_srv.add_argument("--accept-rate", type=float, default=0.7,
                       help="speculative-decode acceptance probability")
    p_srv.add_argument("--prefix-pool", type=int, default=0,
                       help="shared-prefix pool size (0 = no shared "
                            "prefixes)")
    p_srv.add_argument("--priorities", action="store_true",
                       help="tag requests gold/bronze with a gold TTFT "
                            "deadline (SLO-aware admission in paged mode)")
    p_srv.add_argument("--layers", type=int, default=2)
    p_srv.add_argument("--hidden", type=int, default=32)
    p_srv.add_argument("--json", metavar="PATH", default=None,
                       help="also save the reports as JSON")

    p_plan = sub.add_parser(
        "plan",
        help="rank every (dp, pp, scheme, d, M) config for a model size",
    )
    p_plan.add_argument("--model", default="350M",
                        help="preset name (see repro info) or 'all'")
    p_plan.add_argument("--world", type=int, default=32,
                        help="total number of GPUs")
    p_plan.add_argument("--global-batch", type=int, default=256)
    p_plan.add_argument("--seq-len", type=int, default=None,
                        help="override the preset's sequence length")
    p_plan.add_argument("--schedule", choices=["gpipe", "1f1b"],
                        default="1f1b")
    p_plan.add_argument("--zero", action="store_true",
                        help="shard optimizer state over dp (ZeRO-1)")
    p_plan.add_argument("--checkpoint", action="store_true",
                        help="activation checkpointing (recompute backward)")
    p_plan.add_argument("--budget-fraction", type=float, default=0.9,
                        help="usable fraction of GPU memory")
    p_plan.add_argument("--max-microbatches", type=int, default=32)
    p_plan.add_argument("--top", type=int, default=8,
                        help="table rows / JSON entries to keep")
    p_plan.add_argument("--validate", type=int, default=0, metavar="K",
                        help="simulate a diverse top-K and report the "
                             "Spearman rank agreement")
    p_plan.add_argument("--json", metavar="PATH", default=None,
                        help="also save the search results as JSON")
    return parser


def _cmd_info(args) -> int:
    from repro.bench.experiments import FIG7_CONFIG, TABLE1_ROWS, TABLE2_ROWS
    from repro.hardware.spec import meluxina

    cluster = meluxina(16)
    print(f"repro {__version__} — Tesseract (ICPP '22) reproduction")
    print(f"cluster preset : {cluster.name}, {cluster.total_gpus} x "
          f"{cluster.gpu.name}")
    print(f"links          : {cluster.node.intra_link.name} intra-node, "
          f"{cluster.inter_link.name} inter-node")
    print(f"experiments    : Table 1 ({len(TABLE1_ROWS)} rows), "
          f"Table 2 ({len(TABLE2_ROWS)} rows), Fig. 7 "
          f"({len(FIG7_CONFIG.settings)} settings)")
    print("subpackages    : util hardware sim comm varray grid pblas nn "
          "parallel models data train perf bench")
    return 0


def _cmd_matmul(args) -> int:
    from repro.grid.shapes import TesseractShape
    from repro.pblas.verify import verify_matmul
    from repro.util.formatting import format_seconds

    shape = TesseractShape(q=args.q, d=args.d)
    side = shape.q * shape.d
    n = max(args.n // side * side, side)
    result = verify_matmul("tesseract", q=shape.q, d=shape.d, m=n, k=n, n=n)
    m, k, nn = result.dims
    print(f"tesseract {result.shape} matmul of [{m},{k}] x [{k},{nn}] on "
          f"{result.shape.p} simulated GPUs")
    print(f"max |error| vs numpy : {result.max_abs_error:.2e}")
    print(f"simulated time       : "
          f"{format_seconds(result.simulated_seconds)}")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_tables(args) -> int:
    from repro.bench.experiments import TABLE1_ROWS, TABLE2_ROWS
    from repro.bench.report import (
        PAPER_HEADLINES_STRONG,
        PAPER_HEADLINES_WEAK,
        headline_ratios,
        render_comparison,
        render_ratio_table,
    )
    from repro.bench.runner import run_table

    # an omitted size keeps run_table's default; run_row checks the rest
    sizes = {key: value for key, value in (("seq_len", args.seq_len),
                                           ("num_layers", args.layers))
             if value is not None}
    jobs = []
    if args.table in ("1", "all"):
        jobs.append(("Table 1 (strong scaling)", TABLE1_ROWS,
                     PAPER_HEADLINES_STRONG))
    if args.table in ("2", "all"):
        jobs.append(("Table 2 (weak scaling)", TABLE2_ROWS,
                     PAPER_HEADLINES_WEAK))
    all_measured = []
    for name, rows, paper in jobs:
        print(f"\nsimulating {name} ...")
        # only the exports read the per-kind comm breakdown of a trace
        measured = run_table(rows, collect_comm=bool(args.json or args.csv),
                             **sizes)
        all_measured.extend(measured)
        print(render_comparison(measured, f"{name}: paper vs simulated"))
        print(render_ratio_table(headline_ratios(measured), paper,
                                 f"{name} headline ratios"))
    if args.json:
        from repro.bench.export import save_json

        print(f"wrote {save_json(all_measured, args.json)}")
    if args.csv:
        from repro.bench.export import save_csv

        print(f"wrote {save_csv(all_measured, args.csv)}")
    return 0


def _cmd_fig7(args) -> int:
    import dataclasses

    from repro.bench.experiments import FIG7_CONFIG
    from repro.bench.fig7 import render_fig7, run_fig7

    cfg = dataclasses.replace(FIG7_CONFIG, epochs=args.epochs,
                              train_size=160, test_size=40, batch_size=16)
    result = run_fig7(cfg)
    print(render_fig7(result))
    return 0 if result.curves_identical else 1


def _cmd_transfers(args) -> int:
    from repro.perf.commvolume import (
        cannon_transfers,
        solomonik_transfers,
        tesseract_transfers,
        transfer_ratios,
    )
    from repro.util.tables import Table

    table = Table(["p", "cannon", "2.5-D", "tesseract", "cannon/tess",
                   "2.5-D/tess"],
                  title="§1/§3.1 transfer counts per matmul")
    for p in (8, 27, 64, 125):
        r = transfer_ratios(p)
        table.add_row([
            p, f"{cannon_transfers(p):.1f}", f"{solomonik_transfers(p):.1f}",
            f"{tesseract_transfers(p):.1f}",
            f"{r['cannon_over_tesseract']:.2f}",
            f"{r['solomonik_over_tesseract']:.2f}",
        ])
    print(table.render())
    print("paper (§1, at p=64): 31.5x and 3.75x")
    return 0


def _cmd_chaos(args) -> int:
    from repro.bench.chaos import (
        DEFAULT_SCENARIOS,
        ELASTIC_SCENARIOS,
        render_chaos,
        run_scenario,
    )

    scenarios = ELASTIC_SCENARIOS if args.elastic else DEFAULT_SCENARIOS
    by_name = {s.name: s for s in scenarios}
    if args.scenario == "all":
        chosen = list(scenarios)
    elif args.scenario in by_name:
        chosen = [by_name[args.scenario]]
    else:
        raise ConfigError(f"unknown scenario {args.scenario!r}; available: "
                          f"{', '.join(by_name)} or 'all'")
    results = [run_scenario(s) for s in chosen]
    print(render_chaos(results))
    if args.json:
        import json

        payload = {
            r.scenario.name: {
                "steps": r.steps,
                "final_loss": r.final_loss,
                "restarts": r.attempts,
                "recoveries": r.attempts,
                "reshapes": r.reshapes,
                "grows": r.grows,
                "quarantines": r.quarantines,
                "final_world": r.final_world,
                "lost_steps": r.lost_steps,
                "recovery_latency_s": r.recovery_latency_s,
                "time_to_recover_s": r.time_to_recover_s,
                "time_to_reclaim_s": r.time_to_reclaim_s,
                "virtual_time_s": r.virtual_time,
                "goodput_steps_per_s": r.goodput,
            }
            for r in results
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 0


def _cmd_serve(args) -> int:
    from repro.models.configs import TransformerConfig
    from repro.serve import (
        PriorityClass,
        SchedulerConfig,
        SpecDecodeConfig,
        WorkloadConfig,
        run_serving,
    )

    priorities = ()
    if args.priorities:
        priorities = (
            PriorityClass("gold", weight=1.0, ttft_slo_s=0.05),
            PriorityClass("bronze", weight=2.0),
        )
    workload = WorkloadConfig(
        seed=args.seed, num_requests=args.requests, arrival_rate=args.rate,
        prompt_len=(4, 12), output_short=(4, 12), output_long=(64, 96),
        long_frac=0.15,
        prefix_pool=args.prefix_pool, prefix_len=(16, 24),
        priorities=priorities,
    )
    cfg = TransformerConfig(
        num_layers=args.layers, hidden=args.hidden, nheads=4,
        seq_len=workload.max_request_tokens, vocab=32, causal=True,
    )
    policies = (
        ["continuous", "static"] if args.policy == "both" else [args.policy]
    )
    spec = (SpecDecodeConfig(spec_k=args.spec_k,
                             accept_rate=args.accept_rate)
            if args.spec_k else None)
    reports = {}
    for policy in policies:
        sched = SchedulerConfig(max_slots=args.slots,
                                kv_budget_tokens=args.kv_budget,
                                policy=policy,
                                kv_block_tokens=args.kv_block,
                                prefill_chunk_tokens=args.chunk,
                                spec=spec)
        rep = run_serving(
            args.mode, model_cfg=cfg, workload=workload, sched=sched,
            q=args.q, d=args.d, world=args.world,
        )
        reports[policy] = rep
        print(f"{policy:>10}: {rep['completed']}/{rep['num_requests']} done  "
              f"goodput {rep['goodput_tokens_per_s']:.1f} tok/s  "
              f"ttft p50 {rep['ttft_s']['p50'] * 1e3:.2f} ms  "
              f"tpot p50 {rep['tpot_s']['p50'] * 1e3:.2f} ms  "
              f"latency p99 {rep['latency_s']['p99'] * 1e3:.2f} ms  "
              f"preempted {rep['preemptions']}")
        if "paged" in rep:
            extras = [f"prefix hit {rep['paged']['prefix_hit_rate']:.1%}",
                      f"cow {rep['paged']['cow_copies']}",
                      f"blocks peak {rep['paged']['blocks_peak']}"]
            if "spec" in rep:
                extras.append(
                    f"spec {rep['spec']['accepted_per_step']:.2f} tok/step"
                )
            if "slo_attainment" in rep:
                extras.append(f"slo {rep['slo_attainment']:.1%}")
            print(f"{'':>10}  paged: {'  '.join(extras)}")
    if len(reports) == 2:
        speedup = (reports["continuous"]["goodput_tokens_per_s"]
                   / reports["static"]["goodput_tokens_per_s"])
        print(f"continuous-over-static goodput: {speedup:.2f}x")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(reports, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return 0


def _cmd_plan(args) -> int:
    from repro.plan import MODEL_PRESETS, Planner, render_plan, validate_topk

    if args.model == "all":
        models = [m for m in MODEL_PRESETS.values() if m.name != "tiny"]
    elif args.model in MODEL_PRESETS:
        models = [MODEL_PRESETS[args.model]]
    else:
        raise ConfigError(f"unknown model {args.model!r}; presets: "
                          f"{', '.join(MODEL_PRESETS)}, all")

    planner = Planner(world=args.world)
    payloads = {}
    status = 0
    for model in models:
        result = planner.search(
            model, global_batch=args.global_batch, seq_len=args.seq_len,
            schedule=args.schedule, budget_fraction=args.budget_fraction,
            zero=args.zero, checkpoint=args.checkpoint,
            max_microbatches=args.max_microbatches,
        )
        rec = result.recommendation
        # validated before anything is printed, so that a rejected
        # --validate leaves stdout empty
        report = (validate_topk(result, k=args.validate)
                  if rec is not None and args.validate else None)
        print(render_plan(result, top=args.top))
        if rec is None:
            print(f"{model.name}: no feasible config fits the "
                  f"{result.budget_bytes / 1e9:.1f} GB budget")
            status = 1
            continue
        print(f"recommendation: {rec.config.label}  "
              f"(predicted step {rec.predicted_step_s * 1e3:.3f} ms)")
        payloads[model.name] = result.to_payload(top=args.top)
        if report is not None:
            for row in report.rows:
                print(f"  validate {row.planned.config.label:36s} "
                      f"pred {row.predicted_step_s * 1e3:9.3f} ms  "
                      f"sim {row.simulated_step_s * 1e3:9.3f} ms  "
                      f"err {row.rel_error:+.1%}")
            print(f"  spearman(pred, sim) = {report.spearman:.3f}  "
                  f"mean |rel err| = {report.mean_abs_rel_error:.1%}")
            payloads[model.name]["validation"] = report.to_payload()
        print()
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(payloads, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
    return status


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    command = {
        "info": _cmd_info, "matmul": _cmd_matmul, "tables": _cmd_tables,
        "fig7": _cmd_fig7, "transfers": _cmd_transfers, "chaos": _cmd_chaos,
        "serve": _cmd_serve, "plan": _cmd_plan,
    }[args.command]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"repro {args.command}: {' '.join(str(exc).split())}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
