"""Command-line front door: dataset generation, EMST, clustering, benchmarks.

Exit codes: 0 on success, 2 on usage errors (argparse), 1 on runtime or
parse errors, which are reported as a single line on stderr.  Bulk data goes
to --out files; stdout carries only summary lines.
"""

from __future__ import annotations

import argparse
import sys

from .bench import BenchConfig, emit_report, run_suite
from .core import DISTRIBUTIONS, fmt17, generate_synthetic, load_dataset, write_dataset
from .emst import dual_tree_boruvka, kruskal_mst, naive_boruvka, write_edges
from .slink import single_linkage, write_labels

EMST_BACKENDS = ("kd", "ball", "naive", "kruskal")


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _str_list(text: str) -> list[str]:
    return [part for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emstbench",
        description="Spatial-index benchmarking, exact EMST, and single-linkage clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic CSV dataset")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--dist", choices=DISTRIBUTIONS, default="uniform")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    emst = sub.add_parser("emst", help="compute the EMST of a CSV dataset")
    emst.add_argument("--in", dest="infile", required=True)
    emst.add_argument("--backend", choices=EMST_BACKENDS, default="kd")
    emst.add_argument("--out", help="edge file destination (u,v,weight lines)")

    cluster = sub.add_parser("cluster", help="single-linkage clustering via the EMST")
    cluster.add_argument("--in", dest="infile", required=True)
    cluster.add_argument("--k", type=int, required=True)
    cluster.add_argument("--backend", choices=EMST_BACKENDS, default="kd")
    cluster.add_argument("--out", required=True)

    bench = sub.add_parser("bench", help="run the timing suite")
    bench.add_argument("--config", help="JSON file with BenchConfig fields")
    bench.add_argument("--sizes", type=_int_list)
    bench.add_argument("--dims", type=_int_list)
    bench.add_argument("--dist", dest="distribution", choices=DISTRIBUTIONS)
    bench.add_argument("--seed", type=int)
    bench.add_argument("--trials", type=int)
    bench.add_argument("--knn-queries", type=int)
    bench.add_argument("--knn-k", type=int)
    bench.add_argument("--mutations", dest="mutation_count", type=int)
    bench.add_argument("--ops", dest="operations", type=_str_list)
    bench.add_argument("--backends", type=_str_list)
    bench.add_argument("--format", choices=("csv", "json"), default="csv")
    bench.add_argument("--out")

    return parser


def _compute_mst(ds, backend: str):
    if backend in ("kd", "ball"):
        return dual_tree_boruvka(ds, backend)
    if backend == "naive":
        return naive_boruvka(ds)
    return kruskal_mst(ds)


def _cmd_gen(args) -> int:
    ds = generate_synthetic(args.n, args.d, args.dist, args.seed)
    write_dataset(ds, args.out)
    print(f"wrote {ds.n} points of dimension {ds.d} to {args.out}")
    return 0


def _cmd_emst(args) -> int:
    ds = load_dataset(args.infile)
    mst = _compute_mst(ds, args.backend)
    if args.out:
        write_edges(mst, args.out)
    print(f"total_weight={fmt17(mst.total_weight)}")
    return 0


def _cmd_cluster(args) -> int:
    ds = load_dataset(args.infile)
    mst = _compute_mst(ds, args.backend)
    labels = single_linkage(mst, ds.n, args.k)
    write_labels(labels, args.out)
    print(f"wrote {len(set(labels.tolist()))} clusters for {ds.n} points to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    cfg = BenchConfig.from_json_file(args.config) if args.config else BenchConfig()
    # every BenchConfig field has a flag of the same dest; None means not given
    for name in cfg.to_dict():
        if getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    report = run_suite(cfg)
    text = emit_report(report, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {len(report.records)} records to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "emst": _cmd_emst,
    "cluster": _cmd_cluster,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
