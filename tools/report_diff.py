"""Compare two anisocheck output directories.

    python tools/report_diff.py OLD_DIR NEW_DIR

Every ``report.json`` found under both directories (at the same relative
path) is compared without its wall-clock fields (``strip_wallclock`` of
perfbench/run.py), record by record, keyed by record name.  Four lists are
printed:

* records added or removed;
* changed pass flags, of records and of whole reports;
* moved values: every other leaf of a report that differs, with its old
  and new value and, for numbers, the relative change (new - old) / |old|;
* every other file whose bytes differ, or that only one directory holds.

The exit status is 0 when the directories agree and 1 otherwise.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def _strip_wallclock():
    """``strip_wallclock`` of perfbench/run.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # the dataclasses of run.py look it up
    spec.loader.exec_module(module)
    return module.strip_wallclock


def _leaves(obj, path=()):
    """(path, value) of every scalar leaf of a JSON value; a report's
    records are keyed by name rather than by position."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "records" and isinstance(value, list):
                for rec in value:
                    yield from _leaves({k: v for k, v in rec.items() if k != "name"},
                                       path + (key, rec["name"]))
            else:
                yield from _leaves(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, path + (str(i),))
    else:
        yield path, obj


def _relative(old, new):
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (old, new))
    if not numbers:
        return "-"
    return f"{(new - old) / abs(old):+.3g}" if old else "inf"


def compare(old_dir, new_dir):
    """The four lists (added/removed, pass flags, moved values, other
    files) of the directories ``old_dir`` and ``new_dir``, as lines."""
    strip = _strip_wallclock()
    old_dir, new_dir = Path(old_dir), Path(new_dir)
    files = {p.relative_to(root).as_posix() for root in (old_dir, new_dir)
             for p in root.rglob("*") if p.is_file()}
    records, flags, moved, other = [], [], [], []
    for rel in sorted(files):
        old, new = old_dir / rel, new_dir / rel
        if not (old.is_file() and new.is_file()):
            other.append(f"{rel}: only in {old_dir if old.is_file() else new_dir}")
            continue
        if Path(rel).name != "report.json":
            if old.read_bytes() != new.read_bytes():
                other.append(rel)
            continue
        reports = [strip(json.loads(path.read_text())) for path in (old, new)]
        order = [[rec["name"] for rec in report.get("records", [])] for report in reports]
        both = set(order[0]) & set(order[1])
        records += [f"{rel} :: {name}: removed" for name in order[0] if name not in both]
        records += [f"{rel} :: {name}: added" for name in order[1] if name not in both]
        if [n for n in order[0] if n in both] != [n for n in order[1] if n in both]:
            records.append(f"{rel}: records reordered")
        a, b = (dict(_leaves(report)) for report in reports)
        for path in sorted(a.keys() | b.keys()):
            if path[0] == "records" and path[1] not in both:
                continue
            x, y = a.get(path), b.get(path)
            if x == y and type(x) is type(y):
                continue
            where = f"{rel} :: {' / '.join(path[1:] if path[0] == 'records' else path)}"
            if path[-1] == "pass":
                flags.append(f"{where}: {x} -> {y}")
            else:
                moved.append(f"{where}: {x!r} -> {y!r} (rel {_relative(x, y)})")
    return records, flags, moved, other


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python tools/report_diff.py OLD_DIR NEW_DIR", file=sys.stderr)
        return 2
    lists = compare(*argv)
    titles = ("records added or removed", "changed pass flags", "moved values",
              "other files that differ")
    for title, lines in zip(titles, lists):
        print(f"{title}: {len(lines)}")
        for line in lines:
            print(f"  {line}")
    return int(any(lists))


if __name__ == "__main__":
    sys.exit(main())
