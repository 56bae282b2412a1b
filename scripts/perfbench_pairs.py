#!/usr/bin/env python3
"""Runs perfbench in alternating pairs on two trees and judges the change.

  python3 scripts/perfbench_pairs.py PARENT_TREE CHANGE_TREE \\
      --workload serve_cached --seed 1 --pairs 10 [--seconds 20] [--trace 0]
  python3 scripts/perfbench_pairs.py --self-test

Each pair runs `python3 perfbench/run.py` once in each tree, and the tree
that runs first alternates from pair to pair. For every metric the script
prints each side's median and quartiles and the number of pairs the change
won (ties count for neither side), then a verdict:

  gain        the change won at least 9 of every 10 pairs and its median
              beats the parent's by more than the parent's interquartile
              range (the rule for claiming a gain);
  regressed   the change's median is worse than the parent's by more than
              the metric's BENCHMARK.json bound;
  unresolved  the runs spread wider than the bound (either side's IQR over
              the parent median), unless every change run beats every
              parent run;
  within      none of the above: no worse than the bound allows.

Per-layer metrics (--trace 1) have no bound, so they get medians, quartiles
and wins only. Results go to BENCH_<workload>.json (or --out): one set per
run of this script, with every run's numbers, perfbench's `host:` line and
the identity of the code each side measured: a SHA-256 digest of the files
perfbench builds (src/, perfbench/ and the top-level CMakeLists.txt) and
the git commit when the tree is a checkout (a `git archive` tree has
none). Every set is added beside the ones already there, never in place of
one: its `run` is 1 plus the number of sets stored with the same seed,
trace and both identities, so a rerun made to resolve a verdict keeps the
first run too.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

WIN_SHARE = 0.9  # a gain needs at least 9 of every 10 pairs


def quartiles(values):
    """(q1, median, q3) by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")

    def at(frac):
        pos = frac * (len(ordered) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def beats(a, b, better):
    """Whether value `a` is strictly better than `b`."""
    return a < b if better == "lower" else a > b


def judge(parent, change, better, bound):
    """Summary and verdict for one metric over paired runs (pair i is
    parent[i] against change[i])."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = len(parent)
    wins = sum(1 for p, c in zip(parent, change) if beats(c, p, better))
    losses = sum(1 for p, c in zip(parent, change) if beats(p, c, better))
    parent_iqr = p_q3 - p_q1
    gap = abs(c_med - p_med)
    out = {
        "parent": {"runs": parent, "q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"runs": change, "q1": c_q1, "median": c_med, "q3": c_q3},
        "change_wins": wins,
        "change_losses": losses,
        "pairs": pairs,
        "median_change_frac": (c_med - p_med) / p_med if p_med else None,
        "parent_iqr": parent_iqr,
    }
    if better is None or bound is None:
        return out
    gain = (wins >= math.ceil(WIN_SHARE * pairs) and gap > parent_iqr
            and beats(c_med, p_med, better))
    worse = c_med - p_med if better == "lower" else p_med - c_med
    if p_med:
        worse_frac = worse / abs(p_med)
    else:
        worse_frac = math.inf if worse > 0 else 0.0
    spread = max(parent_iqr, c_q3 - c_q1) / abs(p_med) if p_med else 0.0
    every_run_better = all(beats(c, p, better) for c in change for p in parent)
    if gain:
        verdict = "gain"
    elif bound is not None and worse_frac > bound:
        verdict = "regressed"
    elif bound is not None and spread > bound and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within"
    out.update({"better": better, "bound": bound, "spread_frac": spread,
                "verdict": verdict})
    return out


def load_declared(tree):
    """{metric: (better, bound)} from the tree's BENCHMARK.json."""
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: (m["better"], m.get("bound"))
                for m in bench["end_to_end"]}
    for m in bench.get("per_layer", []):
        declared[m["name"]] = (m["better"], None)
    return declared


def run_once(tree, args):
    """One perfbench run in `tree`: (result JSON, host line)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, universal_newlines=True)
    lines = done.stdout.strip().splitlines()
    host = next((l for l in lines if l.startswith("host:")), "")
    if not lines or not lines[-1].startswith("{"):
        sys.exit("perfbench_pairs: no result from %s (exit %d)"
                 % (tree, done.returncode))
    return json.loads(lines[-1]), host


def tree_identity(tree):
    """{"digest", "commit"} for the code in `tree`: a SHA-256 over the
    relative path and bytes of every file perfbench builds, and the git
    commit when `tree` is the top of a checkout, else None."""
    paths = [os.path.join(tree, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for root, dirs, files in os.walk(os.path.join(tree, top)):
            dirs[:] = [d for d in dirs if d != "__pycache__"]
            paths += [os.path.join(root, f) for f in files]
    digest = hashlib.sha256()
    for path in sorted(paths):
        with open(path, "rb") as f:
            data = f.read()
        name = os.path.relpath(path, tree).replace(os.sep, "/")
        digest.update(("%s %d\n" % (name, len(data))).encode() + data)
    commit = None
    if shutil.which("git"):
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=tree, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL,
                             universal_newlines=True)
        lines = git.stdout.split()
        if (git.returncode == 0 and len(lines) == 2
                and os.path.realpath(lines[0]) == os.path.realpath(tree)):
            commit = lines[1]
    return {"digest": digest.hexdigest(), "commit": commit}


def run_pairs(args):
    declared = load_declared(args.change_tree)
    trees = {"parent": args.parent_tree, "change": args.change_tree}
    identity = {side: tree_identity(tree) for side, tree in trees.items()}
    for tree in trees.values():  # build once, outside the timed runs
        subprocess.run([sys.executable, "perfbench/run.py", "--self-test"],
                       cwd=tree, stdout=subprocess.DEVNULL, check=True)
    results = {"parent": [], "change": []}
    host = ""
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result, host_line = run_once(trees[side], args)
            host = host or host_line
            results[side].append(result)
            m = result["metrics"]
            print("pair %d %-6s p50 %s us, ops %s/s, failed %d of %d" % (
                i + 1, side, m.get("latency_p50_us", {}).get("value"),
                m.get("ops_per_s", {}).get("value"), result["failed"],
                result["attempted"]), flush=True)
    return summarize(results, declared, args, host, identity)


def summarize(results, declared, args, host, identity):
    names = [n for n in results["parent"][0]["metrics"]
             if all(n in r["metrics"] for side in results.values()
                    for r in side)]
    metrics = {}
    for name in names:
        better, bound = declared.get(name, (None, None))
        metrics[name] = judge(
            [r["metrics"][name]["value"] for r in results["parent"]],
            [r["metrics"][name]["value"] for r in results["change"]],
            better, bound)
        metrics[name]["unit"] = results["parent"][0]["metrics"][name]["unit"]
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pairs": len(results["parent"]),
        "order": "alternating, parent first in odd pairs",
        "host": host,
        "identity": identity,
        "failed": {side: [r["failed"] for r in runs]
                   for side, runs in results.items()},
        "attempted": {side: [r["attempted"] for r in runs]
                      for side, runs in results.items()},
        "metrics": metrics,
    }


def print_set(workload, result):
    print("%s seed %d, %d pairs of %d s, trace %d" % (
        workload, result["seed"], result["pairs"], result["seconds"],
        result["trace"]))
    print("  %-26s %30s %30s %6s %s" % ("metric", "parent q1/median/q3",
                                        "change q1/median/q3", "wins",
                                        "verdict"))
    for name, m in result["metrics"].items():
        p, c = m["parent"], m["change"]
        frac = m["median_change_frac"]
        print("  %-26s %30s %30s %3d/%-2d %s%s" % (
            name, "%.4g/%.4g/%.4g" % (p["q1"], p["median"], p["q3"]),
            "%.4g/%.4g/%.4g" % (c["q1"], c["median"], c["q3"]),
            m["change_wins"], m["pairs"], m.get("verdict", "-"),
            "" if frac is None else " (%+.1f%%)" % (100 * frac)))


def write_set(path, workload, result):
    doc = {"workload": workload, "sets": []}
    if os.path.exists(path):
        with open(path) as f:
            doc = json.load(f)

    def key(s):
        return s["seed"], s["trace"], s.get("identity")

    result["run"] = 1 + sum(key(s) == key(result) for s in doc["sets"])
    doc["sets"].append(result)
    doc["sets"].sort(key=lambda s: (s["trace"], s["seed"]))
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def self_test():
    checks = 0

    def check(cond, what):
        nonlocal checks
        if not cond:
            sys.exit("perfbench_pairs self-test FAILED: " + what)
        checks += 1

    check(quartiles([1, 2, 3, 4, 5]) == (2, 3, 4), "odd quartiles")
    check(quartiles([4, 1, 3, 2]) == (1.75, 2.5, 3.25), "even quartiles")
    check(quartiles([7]) == (7, 7, 7), "single value")

    parent = [80, 82, 78, 81, 79, 83, 80, 84, 77, 81]
    faster = [50, 51, 49, 52, 50, 48, 53, 50, 51, 49]
    m = judge(parent, faster, "lower", 0.25)
    check(m["verdict"] == "gain", "clear latency gain")
    check(m["change_wins"] == 10 and m["change_losses"] == 0, "wins counted")
    check(abs(m["parent"]["median"] - 80.5) < 1e-12, "parent median")

    # 8 of 10 pairs won is not a gain, and a small gap stays within bound.
    close = [p - 1 for p in parent[:8]] + [p + 1 for p in parent[8:]]
    m = judge(parent, close, "lower", 0.25)
    check(m["change_wins"] == 8 and m["verdict"] == "within", "8/10 pairs")

    # Ties count for neither side.
    m = judge(parent, list(parent), "lower", 0.25)
    check(m["change_wins"] == 0 and m["change_losses"] == 0, "ties")
    check(m["verdict"] == "within", "tie verdict")

    # Every pair won, but by less than the parent's IQR: no gain.
    m = judge(parent, [p - 0.5 for p in parent], "lower", 0.25)
    check(m["change_wins"] == 10 and m["verdict"] == "within", "gap < IQR")

    # Higher-is-better metrics: a throughput drop past the bound regresses.
    ops = [1000, 1010, 990, 1005, 995, 1000, 1002, 998, 1001, 999]
    m = judge(ops, [o * 0.7 for o in ops], "higher", 0.25)
    check(m["verdict"] == "regressed", "throughput regression")
    m = judge(ops, [o * 1.5 for o in ops], "higher", 0.25)
    check(m["verdict"] == "gain", "throughput gain")

    # A parent spread wider than the bound leaves the metric unresolved...
    noisy = [600, 1400, 700, 1300, 650, 1350, 800, 1200, 900, 1100]
    m = judge(noisy, [n * 1.05 for n in noisy[::-1]], "lower", 0.25)
    check(m["verdict"] == "unresolved", "noisy metric")
    # ...unless every change run beats every parent run.
    m = judge(noisy, [n / 10 for n in noisy], "lower", 0.25)
    check(m["verdict"] == "gain", "noisy but separated")

    # No bound (per-layer metrics): summary only, zero medians included.
    m = judge([1, 2, 3], [2, 3, 4], "lower", None)
    check("verdict" not in m and m["pairs"] == 3, "per-layer summary")
    m = judge([0, 0, 0], [0, 0, 0], "lower", None)
    check(m["median_change_frac"] is None, "zero median")
    # A bounded metric whose parent median is zero regresses on any rise.
    m = judge([0, 0, 0], [0, 1, 1], "lower", 0.25)
    check(m["verdict"] == "regressed", "rise from zero")

    with tempfile.TemporaryDirectory() as tmp:
        # The identity covers src/, perfbench/ and CMakeLists.txt only.
        tree = os.path.join(tmp, "tree")
        for name in ("src/a.cc", "perfbench/run.py", "CMakeLists.txt",
                     "docs/notes.md"):
            os.makedirs(os.path.dirname(os.path.join(tree, name)),
                        exist_ok=True)
            with open(os.path.join(tree, name), "w") as f:
                f.write(name)
        first = tree_identity(tree)
        check(first == tree_identity(tree), "identity is stable")
        check(first["commit"] is None, "no commit outside a checkout")
        with open(os.path.join(tree, "docs/notes.md"), "a") as f:
            f.write("more")
        check(tree_identity(tree) == first, "docs outside the digest")
        with open(os.path.join(tree, "src/a.cc"), "a") as f:
            f.write("more")
        second = tree_identity(tree)
        check(second["digest"] != first["digest"], "src edit moves digest")
        os.rename(os.path.join(tree, "src/a.cc"),
                  os.path.join(tree, "src/b.cc"))
        check(tree_identity(tree)["digest"] != second["digest"],
              "rename moves digest")
        if shutil.which("git"):
            # A tree unpacked inside a checkout is not that checkout.
            nested = os.path.join(tree, "nested")
            for name in ("src", "perfbench"):
                shutil.copytree(os.path.join(tree, name),
                                os.path.join(nested, name))
            shutil.copy(os.path.join(tree, "CMakeLists.txt"), nested)
            quiet = {"stdout": subprocess.DEVNULL,
                     "stderr": subprocess.DEVNULL}
            subprocess.run(["git", "init", "-q", tree], check=True, **quiet)
            subprocess.run(["git", "-C", tree, "add", "-A"], check=True,
                           **quiet)
            subprocess.run(["git", "-C", tree, "-c", "user.name=t", "-c",
                            "user.email=t@t", "commit", "-qm", "t"],
                           check=True, **quiet)
            head = subprocess.run(["git", "-C", tree, "rev-parse", "HEAD"],
                                  stdout=subprocess.PIPE, check=True,
                                  universal_newlines=True).stdout.strip()
            check(tree_identity(tree)["commit"] == head, "checkout commit")
            check(tree_identity(nested)["commit"] is None,
                  "no commit below the top of a checkout")

        # write_set keeps every set: two writes of one seed, trace and
        # pair of identities are runs 1 and 2, another identity or seed
        # starts at run 1, and a legacy set without identities stays.
        path = os.path.join(tmp, "BENCH_x.json")
        ids = {"parent": first, "change": second}
        other = {"parent": first, "change": first}
        with open(path, "w") as f:
            json.dump({"workload": "x", "sets": [
                {"seed": 1, "trace": 0, "pairs": 0}]}, f)
        write_set(path, "x", {"seed": 1, "trace": 0, "identity": ids,
                              "pairs": 1})
        write_set(path, "x", {"seed": 1, "trace": 0, "identity": ids,
                              "pairs": 2})
        write_set(path, "x", {"seed": 1, "trace": 0, "identity": other,
                              "pairs": 3})
        write_set(path, "x", {"seed": 7, "trace": 0, "identity": ids,
                              "pairs": 4})
        with open(path) as f:
            sets = json.load(f)["sets"]
        check(sorted((s["pairs"], s.get("run")) for s in sets) ==
              [(0, None), (1, 1), (2, 2), (3, 1), (4, 1)],
              "every write appends with its run number")

    print("perfbench_pairs self-test: %d checks passed" % checks)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", nargs="?")
    parser.add_argument("change_tree", nargs="?")
    parser.add_argument("--workload", choices=["serve_cached", "tiles_cold"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="default: BENCH_<workload>.json")
    parser.add_argument("--self-test", action="store_true",
                        help="check the statistics on fixed numbers")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent_tree and args.change_tree and args.workload):
        parser.error("PARENT_TREE, CHANGE_TREE and --workload are required")
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    result = run_pairs(args)
    print_set(args.workload, result)
    write_set(args.out or "BENCH_%s.json" % args.workload, args.workload,
              result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
