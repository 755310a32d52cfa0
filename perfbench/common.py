"""Helpers shared by the benchmark's harness and its worker processes."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


def read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line for line in fh.read().split("\n") if line]


def write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Checks:
    """Named pass/fail output checks; an exception inside a check fails it."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    def run(self, name: str, fn) -> None:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashing check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.add(name, ok, detail)


def upward(parents_of, cid: str) -> set[str]:
    """``cid`` and every class above it, following ``parents_of``.  The
    checks use this instead of the traced ``OntologyGraph.ancestors``."""
    seen = {cid}
    frontier = [cid]
    while frontier:
        for parent in parents_of(frontier.pop()):
            if parent not in seen:
                seen.add(parent)
                frontier.append(parent)
    return seen


def check_grafts(original, extended, accepted_by_smiles: dict[str, list[str]]):
    """Every class the extension added is a leaf whose ``is_a`` edges go to
    exactly the most specific of the classes accepted for its molecule."""
    added = [cid for cid in extended.ids() if cid not in original]
    problems = []
    for cid in added:
        cls = extended[cid]
        accepted = set(accepted_by_smiles.get(cls.smiles, ()))
        parents = set(cls.parents)
        specific = {
            a for a in accepted
            if not any(a in upward(lambda c: original[c].parents, b) for b in accepted if b != a)
        }
        if not parents or parents != specific:
            problems.append(cid)
    n_expected = sum(1 for acc in accepted_by_smiles.values() if acc)
    if len(added) != n_expected:
        problems.append(f"added {len(added)} classes, expected {n_expected}")
    return not problems, f"{len(added)} grafted leaves, problems: {problems[:3]}"


def sources_digest(*roots: str) -> str:
    """sha256 over every ``.py`` file under ``roots`` (relative path and
    content), so that stored digests belong to one version of the code."""
    digest = hashlib.sha256()
    for root in roots:
        for folder, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, root).encode())
                digest.update(sha256_file(path).encode())
    return digest.hexdigest()


class HashLedger:
    """sha256 digests recorded by earlier runs of the same code.

    ``path`` should name the code version (see ``sources_digest``): the
    first run of a key records its digest; later runs must reproduce it.
    """

    def __init__(self, path: str):
        self.path = path
        self.entries = read_json(path) if os.path.exists(path) else {}

    def check(self, key: str, digest: str):
        known = self.entries.get(key)
        if known is None:
            self.entries[key] = digest
            return True, f"recorded {digest[:12]}"
        return known == digest, f"expected {known[:12]}, got {digest[:12]}"

    def save(self) -> None:
        write_json(self.path, self.entries)
