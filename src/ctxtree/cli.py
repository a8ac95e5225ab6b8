"""Command-line interface.

Subcommands: learn, sample, kl, enumerate, generate, ldag, score.  Logs go
to standard error; results go to standard output or ``--out`` files.  Exit
codes: 0 success, 1 usage error, 2 data/validation error, 3 resource-cap
error.  Randomized subcommands take ``--seed``; without one a fresh seed is
drawn and echoed on standard error.
"""

from __future__ import annotations

import argparse
import json
import logging
import secrets
import sys
from dataclasses import replace
from importlib.metadata import PackageNotFoundError, version

import numpy as np

from .core import (
    CStree,
    CtxTreeError,
    ResourceCapError,
    StateSpace,
    ValidationError,
)
from .counts import Dataset, _parse_csv, _read_header, write_csv
from .enumeration import EnumSpec, count_stagings, enumerate_stagings
from .ldag import export_dot, ldag_to_json_dict, to_ldag
from .learn import LearnConfig, _checked_sets, _score_tables, learn, load_possible_parents
from .model_ops import kl_divergence, random_cstree, sample
from .order_mcmc import ChainConfig, dump_trace
from .scoring import PriorSpec, log_marginal_likelihood

logger = logging.getLogger("ctxtree")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _parse_ints(text: str, option: str) -> list[int]:
    try:
        return [int(c) for c in text.split(",")]
    except ValueError:
        raise ValidationError(f"bad {option} list {text!r}") from None


def _resolve_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise ValidationError(f"--seed must be nonnegative, got {args.seed}")
        return args.seed
    seed = secrets.randbits(63)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _build_parser() -> _Parser:
    parser = _Parser(prog="ctxtree", description=__doc__)
    try:
        pkg_version = version("ctxtree")
    except PackageNotFoundError:
        pkg_version = "0.0.0"
    parser.add_argument("--version", action="version", version=f"ctxtree {pkg_version}")
    subs = parser.add_subparsers(dest="command", required=True)

    tables = argparse.ArgumentParser(add_help=False)  # flags of learn and score
    tables.add_argument("--data", required=True)
    tables.add_argument("--beta", type=int, default=2)
    tables.add_argument("--prior", choices=("bdeu-path", "unit"), default="bdeu-path")
    tables.add_argument("--ess", type=float, default=1.0)
    tables.add_argument("--possible-parents", default=None)
    tables.add_argument("--cards-row", choices=("auto", "yes", "no"), default="auto")

    p = subs.add_parser("learn", parents=[tables], help="estimate a CStree from a CSV dataset")
    p.add_argument("--iterations", type=int, default=5000)
    p.add_argument("--burn-in", type=int, default=None)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--estimator", choices=("map", "mle", "none"), default="map")
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)

    p = subs.add_parser("sample", help="draw rows from a model")
    p.add_argument("--model", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)

    p = subs.add_parser("kl", help="exact KL divergence between two models")
    p.add_argument("--p", required=True, dest="p_model")
    p.add_argument("--q", required=True, dest="q_model")
    p.add_argument("--both-directions", action="store_true")

    p = subs.add_parser("enumerate", help="list or count admissible level stagings")
    p.add_argument("--cards", required=True)
    p.add_argument("--beta", type=int, default=2)
    p.add_argument("--usable", default=None)
    p.add_argument("--count-only", action="store_true")

    p = subs.add_parser("generate", help="generate a random model")
    p.add_argument("--cards", required=True)
    p.add_argument("--beta", type=int, default=2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--theta", choices=("dirichlet1", "none"), default="dirichlet1")
    p.add_argument("--out", required=True)

    p = subs.add_parser("ldag", help="export a model's LDAG")
    p.add_argument("--model", required=True)
    p.add_argument("--dot", default=None)
    p.add_argument("--json", default=None, dest="json_out")

    p = subs.add_parser("score", parents=[tables], help="score an ordering or model against data")
    p.add_argument("--order", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--dump-scores", default=None)
    return parser


def _load_tables_inputs(args) -> tuple[Dataset, LearnConfig]:
    """The dataset and table settings that ``learn`` and ``score`` share.
    The CSV header gives the variable count, so beta and the |K_i| cap are
    checked before the rows are parsed.  The file is read once, so a pipe
    serves as well as a regular file."""
    with open(args.data, "rb") as fh:
        raw = fh.read()
    p = len(_read_header(args.data, raw))
    prior = PriorSpec(args.prior, args.ess)
    pp = load_possible_parents(args.possible_parents, p) if args.possible_parents else None
    config = LearnConfig(args.beta, prior, possible_parents=pp)
    _checked_sets(config, p)
    return _parse_csv(args.data, raw, args.cards_row), config


def _cmd_learn(args) -> int:
    data, config = _load_tables_inputs(args)
    chain = ChainConfig(args.iterations, args.burn_in, _resolve_seed(args), args.thin)
    config = replace(config, chain=chain, estimator=args.estimator)
    tree, trace = learn(data, config, return_trace=True)
    tree.to_json(args.out)
    if args.trace:
        with open(args.trace, "w") as fh:
            dump_trace(trace, fh)
    logger.info("wrote model to %s", args.out)
    return 0


def _cmd_sample(args) -> int:
    tree = CStree.from_json(args.model)
    seed = _resolve_seed(args)
    data = sample(tree, args.n, np.random.default_rng(seed))
    write_csv(data, args.out)
    return 0


def _cmd_kl(args) -> int:
    p_tree = CStree.from_json(args.p_model)
    q_tree = CStree.from_json(args.q_model)
    if args.both_directions:
        print(f"pq\t{_fmt(kl_divergence(p_tree, q_tree))}")
        print(f"qp\t{_fmt(kl_divergence(q_tree, p_tree))}")
    else:
        print(_fmt(kl_divergence(p_tree, q_tree)))
    return 0


def _cmd_enumerate(args) -> int:
    cards = _parse_ints(args.cards, "--cards")
    usable = _parse_ints(args.usable, "--usable") if args.usable else None
    spec = EnumSpec.of_cards(cards, beta=args.beta, usable=usable)
    if args.count_only:
        print(count_stagings(spec))
        return 0
    for staging in enumerate_stagings(spec):
        entry = [{str(v): x for v, x in stage.context.items} for stage in staging.stages]
        print(json.dumps(entry, separators=(",", ":")))
    return 0


def _cmd_generate(args) -> int:
    cards = _parse_ints(args.cards, "--cards")
    seed = _resolve_seed(args)
    tree = random_cstree(
        StateSpace(cards), args.beta, np.random.default_rng(seed), theta=args.theta
    )
    tree.to_json(args.out)
    return 0


def _cmd_ldag(args) -> int:
    tree = CStree.from_json(args.model)
    graph = to_ldag(tree)
    dot = export_dot(graph)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(ldag_to_json_dict(graph), fh, indent=2)
            fh.write("\n")
    if not args.dot and not args.json_out:
        sys.stdout.write(dot)
    return 0


def _cmd_score(args) -> int:
    data, config = _load_tables_inputs(args)
    tables = _score_tables(data, config)
    if args.dump_scores:
        with open(args.dump_scores, "w") as fh:
            tables.dump_z(fh)
    if args.model:
        tree = CStree.from_json(args.model)
        print(f"log_marginal_likelihood\t{_fmt(log_marginal_likelihood(tree, data, config.prior))}")
        print(f"log_order_score\t{_fmt(tables.order_score(tree.order))}")
    elif args.order is not None:
        order = _parse_ints(args.order, "--order")
        print(f"log_order_score\t{_fmt(tables.order_score(order))}")
    elif not args.dump_scores:
        raise ValidationError("score needs --model, --order, or --dump-scores")
    return 0


_COMMANDS = {
    "learn": _cmd_learn,
    "sample": _cmd_sample,
    "kl": _cmd_kl,
    "enumerate": _cmd_enumerate,
    "generate": _cmd_generate,
    "ldag": _cmd_ldag,
    "score": _cmd_score,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except ResourceCapError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except (CtxTreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
