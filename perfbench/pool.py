"""The frozen input pool: generation (once) and loading (every run).

    python3 perfbench/pool.py      # regenerate data/pool.json and its checksum

The pool holds semirings drawn from the program at the commit that defined
the benchmark, from a recorded seed, together with the expected output of
every check made on them (goldens). Workload seeds only select and order pool
members, so a later change to the program's generators or samplers cannot
change what the `sweep` and `cli` workloads feed it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
POOL_PATH = HERE / "data" / "pool.json"
CHECKSUM_PATH = HERE / "data" / "pool.sha256"

POOL_SEED = 20261017
# members drawn per order; orders 2 and 3 are the full canonical sets
SAMPLED_ORDERS = {4: 900, 5: 240, 6: 128}
# members of each order in one sweep pass; None takes every pool member
SWEEP_PASS = {2: None, 3: None, 4: 450, 5: 150, 6: None}

# CLI round: light categories, drawn per round from the catalog by the seed
CLI_ROUND = {
    "validate": 5,
    "classify": 4,
    "classify-verify": 3,
    "congruences": 4,
    "decompose": 4,
    "compose": 4,
    "maps": 3,
    "enumerate": 3,
    "counterexample": 3,
}
# the fixed tail: classify/decompose on rings whose additive H-class has 14
# to 20 elements, where the sub-skew-ring subset search dominates. Six of
# them cost about the same (H-class of 18), so the p90 of a round lands
# inside that block whatever the run length.
CLI_TAIL = (
    ("classify", "z14"),
    ("decompose", "z16"),
    ("classify", "z18"),
    ("decompose", "z18"),
    ("classify", "z2xz9"),
    ("decompose", "z2xz9"),
    ("classify", "z3xz6"),
    ("decompose", "z3xz6"),
    ("classify", "z20"),
)
RINGS = {
    **{f"z{n}": ("zn", n) for n in (2, 3, 4, 6, 12, 14, 16, 18, 20)},
    **{f"z{a}xz{b}": ("product", a, b) for a, b in ((2, 2), (2, 3), (2, 4), (3, 3), (2, 9), (3, 6))},
}

LAUNCHER = "from semiringlab.cli import run; run()"


def cli_command() -> list[str]:
    """Runs the CLI from the source tree, without installing the package."""
    return [sys.executable, "-c", LAUNCHER]


def cli_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


# ---------------------------------------------------------------- loading


class PoolError(Exception):
    pass


def load() -> dict:
    """Read the pool and verify its checksum."""
    data = POOL_PATH.read_bytes()
    expected = CHECKSUM_PATH.read_text(encoding="utf-8").split()[0]
    got = hashlib.sha256(data).hexdigest()
    if got != expected:
        raise PoolError(f"pool checksum mismatch: {got} != {expected}")
    return json.loads(data)


def interleave(groups: list[list], rng: random.Random) -> list:
    """Merge groups so each is spread evenly over the result: any prefix
    holds every group in proportion, within one item."""
    keyed = []
    for gi, group in enumerate(groups):
        offset = rng.random()
        for k, item in enumerate(group):
            keyed.append(((k + offset) / len(group), gi, item))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def sweep_selection(pool: dict, seed: int) -> list[dict]:
    """One sweep pass: fixed member counts per order, seeded choice and
    order within each."""
    rng = random.Random(f"sweep:{seed}")
    by_order: dict[int, list] = {}
    for m in pool["members"]:
        by_order.setdefault(m["order"], []).append(m)
    groups = []
    for order, take in SWEEP_PASS.items():
        members = list(by_order[order])
        rng.shuffle(members)
        groups.append(members if take is None else members[:take])
    return interleave(groups, rng)


def cli_round(pool: dict, seed: int, round_no: int) -> list[dict]:
    """One CLI round: seeded draws per light category plus the fixed tail."""
    rng = random.Random(f"cli:{seed}:{round_no}")
    catalog: dict[str, list] = {}
    for entry in pool["cli"]:
        catalog.setdefault(entry["category"], []).append(entry)
    groups = [rng.sample(catalog[cat], count) for cat, count in CLI_ROUND.items()]
    groups.append(list(catalog["tail"]))
    return interleave(groups, rng)


def write_inputs(pool: dict, workdir: Path) -> None:
    """Write every input file the CLI catalog names into workdir."""
    texts = dict(pool["files"])
    texts.update((f"{m['id']}.srt", m["srt"]) for m in pool["members"])
    for entry in pool["cli"]:
        for arg in entry["argv"]:
            if arg in texts:
                (workdir / arg).write_text(texts[arg], encoding="utf-8")


# ------------------------------------------------------------- generation


def _ring_srt(spec) -> str:
    import rings

    if spec[0] == "zn":
        return rings.zn_srt(spec[1])
    return rings.product_srt(spec[1], spec[2])


def _corrupted(sl, s, rng: random.Random):
    """Copies of s with one multiplication cell changed that break a law."""
    n = s.order
    while True:
        i, j, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if v == s.mul[i][j]:
            continue
        mul = [list(row) for row in s.mul]
        mul[i][j] = v
        t = sl.FiniteSemiring(names=s.names, add=s.add, mul=tuple(map(tuple, mul)))
        if not sl.validate(t).verdict:
            return t


def _members(sl):
    import checks

    drawn = {2: sl.enumerate_semirings(2), 3: sl.enumerate_semirings(3)}
    for order, count in SAMPLED_ORDERS.items():
        drawn[order] = sl.sample_semirings(order, count, seed=POOL_SEED)
        assert len(drawn[order]) == count, f"order {order}: short draw"
    rng = random.Random(POOL_SEED)
    members = []
    for order, group in drawn.items():
        for k, s in enumerate(group):
            ok, verdict = checks.sweep_member(sl, s)
            perm = list(range(order))
            rng.shuffle(perm)
            ok2, verdict2 = checks.sweep_member(sl, s.relabel(perm))
            assert ok and ok2, f"theorem disagreement on pool member\n{sl.serialize_srt(s)}"
            assert verdict == verdict2, "verdicts change under relabelling"
            members.append({
                "id": f"o{order}-{k:04d}",
                "order": order,
                "srt": sl.serialize_srt(s),
                "saqci": checks.SAQCI in sl.classify(s).true_classes(),
                "golden": checks.digest(verdict),
            })
    return members


def _specs(sl, members, limit=24):
    """.sbl specs derived from SAQCI pool members through family_spec,
    members with more classes first."""
    from semiringlab.blattice import family_spec

    found = []
    for m in members:
        if not m["saqci"] or m["order"] > 4:
            continue
        s = sl.parse_srt(m["srt"])
        maps = sl.search_structure_maps(s)
        if maps is None:
            continue
        d = sl.decompose(s)
        found.append((-d.y_order, m["id"], sl.serialize_sbl(family_spec(d, maps))))
    found.sort()
    return {f"spec-{mid}.sbl": text for _, mid, text in found[:limit]}


def _catalog(sl, members, specs, files):
    rng = random.Random(POOL_SEED + 1)

    def pick(pred, k):
        chosen = [m for m in members if pred(m)]
        rng.shuffle(chosen)
        return [f"{m['id']}.srt" for m in chosen[:k]]

    def qcr(m):
        s = sl.parse_srt(m["srt"])
        return sl.classify(s).holds("quasi-completely-regular")

    entries = []

    def add(category, *argv, command=None):
        command = command or category.split("-")[0]
        entries.append({"category": category, "argv": [command, *argv]})

    for f in pick(lambda m: True, 24):
        add("validate", f)
    for f in [name for name in files if name.startswith("bad-")]:
        add("validate", f)
    for f in pick(lambda m: True, 24) + ["z2xz2.srt", "z2xz3.srt", "z3xz3.srt", "z12.srt"]:
        add("classify", f)
    for f in pick(lambda m: m["order"] >= 3, 24):
        add("classify-verify", f, "--verify-theorems")
    for f in pick(lambda m: m["order"] >= 3, 24) + ["z4.srt", "z6.srt"]:
        add("congruences", f)
    for k, f in enumerate(pick(qcr, 24) + ["z2xz4.srt", "z12.srt"]):
        if k % 4 == 0:
            add("decompose", f, "--emit-components", f"parts-{f[:-4]}")
        else:
            add("decompose", f)
    for k, f in enumerate(sorted(specs)):
        if k % 3 == 0:
            add("compose", f, "-o", f"composed-{f[:-4]}.srt")
        else:
            add("compose", f)
    for f in pick(lambda m: m["saqci"], 24) + ["z2xz2.srt", "z6.srt"]:
        add("maps", f)
    for argv in (
        ["--order", "2"],
        ["--order", "2", "--out", "corpus2"],
        ["--order", "3", "--count-only"],
        ["--order", "3", "--class", "skew-ring"],
        ["--order", "3", "--class", "b-lattice", "--count-only"],
        ["--order", "4", "--sample", "10", "--seed", "1", "--count-only"],
        ["--order", "4", "--sample", "10", "--seed", "2"],
        ["--order", "4", "--sample", "20", "--seed", "3", "--count-only"],
    ):
        add("enumerate", *argv)
    for premise, conclusion, order in (
        ("quasi-skew-ring", "skew-ring", "3"),
        ("skew-ring", "quasi-skew-ring", "3"),
        ("completely-regular", "additively-inverse", "3"),
        ("additively-inverse", "completely-regular", "2"),
        ("b-lattice", "generalized-clifford", "3"),
        ("quasi-completely-inverse", "completely-regular", "3"),
        ("additively-regular", "completely-regular", "3"),
        ("generalized-clifford", "quasi-completely-regular", "2"),
    ):
        add("counterexample", "--premise", premise, "--conclusion", conclusion, "--max-order", order)
    for command, ring in CLI_TAIL:
        add("tail", f"{ring}.srt", command=command)
    for k, e in enumerate(entries):
        e["id"] = f"cli-{k:03d}"
    return entries


def _record_cli_goldens(pool):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(pool, work)
        entries = pool["cli"]
        for e in entries:
            r = subprocess.run(
                cli_command() + e["argv"], cwd=work, env=cli_env(),
                capture_output=True, timeout=120,
            )
            assert r.returncode in (0, 1), f"{e['argv']} exited {r.returncode}: {r.stderr!r}"
            e["exit"] = r.returncode
            e["stdout_sha256"] = hashlib.sha256(r.stdout).hexdigest()


def generate() -> None:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import checks
    import semiringlab as sl

    members = _members(sl)
    by_id = {m["id"]: m for m in members}
    files = {}
    rng = random.Random(POOL_SEED + 2)
    for k, mid in enumerate(rng.sample([m for m in by_id if by_id[m]["order"] in (3, 4)], 8)):
        bad = _corrupted(sl, sl.parse_srt(by_id[mid]["srt"]), rng)
        files[f"bad-{k}.srt"] = sl.serialize_srt(bad)
    for name, spec in RINGS.items():
        files[f"{name}.srt"] = _ring_srt(spec)
    specs = _specs(sl, members)
    files.update(specs)
    pool = {
        "seed": POOL_SEED,
        "members": members,
        "files": files,
        "cli": _catalog(sl, members, specs, files),
    }
    _record_cli_goldens(pool)
    with tempfile.TemporaryDirectory() as tmp:
        count, manifest_sha = checks.corpus_order4(sl, Path(tmp) / "corpus")
    pool["enumerate"] = {"order4_count": count, "order4_manifest_sha256": manifest_sha}
    data = json.dumps(pool, indent=0, sort_keys=True).encode("utf-8") + b"\n"
    POOL_PATH.parent.mkdir(parents=True, exist_ok=True)
    POOL_PATH.write_bytes(data)
    CHECKSUM_PATH.write_text(hashlib.sha256(data).hexdigest() + "  pool.json\n", encoding="utf-8")
    print(f"pool: {len(members)} members, {len(files)} extra files, {len(pool['cli'])} CLI entries")


if __name__ == "__main__":
    generate()
