"""Correctness references and comparisons for the benchmark workloads.

The references are the repository's own published results:

* the Table I and Fig. 2-5 blocks of ``EXPERIMENTS_MEASURED.md``, which the
  study grids must reproduce byte for byte through the public
  ``repro.reporting`` formatters;
* the transform figure in ``README.md`` (225 loops, STATIC_DOALL 138->139,
  STATIC_LCD 60->60, UNKNOWN 27->26), which ``analyze`` must reproduce on
  the bundled programs. The README shows the figure without its two bar
  lines, so those are dropped before comparing.
"""

from __future__ import annotations

import hashlib
import re

STUDY_BLOCKS = ("Table I", "Figure 2", "Figure 3", "Figure 4", "Figure 5")


def experiments_blocks(text):
    """``{section title: fenced block}`` of ``EXPERIMENTS_MEASURED.md``."""
    blocks = dict(re.findall(r"^## (.+?)\n\n```\n(.*?)\n```", text,
                             re.S | re.M))
    missing = [title for title in STUDY_BLOCKS if title not in blocks]
    if missing:
        raise ValueError(f"reference lacks sections {missing}")
    return {title: blocks[title] for title in STUDY_BLOCKS}


def readme_transform_block(text):
    """The transform-unlock figure quoted in ``README.md``."""
    match = re.search(
        r"```\n(parallelism unlocked by transformation.*?)\n```", text, re.S)
    if match is None:
        raise ValueError("README lacks the transform figure")
    return match.group(1)


def render_study_blocks(runner):
    """Render the study grids held by ``runner`` exactly as
    ``examples/full_paper_run.py`` writes them."""
    from repro.reporting import (
        figure2_nonnumeric,
        figure3_numeric,
        figure4_per_benchmark,
        figure5_coverage,
        format_census,
        format_coverage,
        format_figure4,
        format_speedup_figure,
        table1_census,
    )

    return {
        "Table I": format_census(table1_census(runner)),
        "Figure 2": format_speedup_figure(
            figure2_nonnumeric(runner),
            "Fig. 2 (reproduced) — non-numeric GEOMEAN speedups"),
        "Figure 3": format_speedup_figure(
            figure3_numeric(runner),
            "Fig. 3 (reproduced) — numeric GEOMEAN speedups"),
        "Figure 4": format_figure4(figure4_per_benchmark(runner)),
        "Figure 5": format_coverage(figure5_coverage(runner)),
    }


def render_transform_block(report):
    """The transform figure in the README's form (bar lines dropped)."""
    from repro.reporting import format_transform_figure

    return "\n".join(
        line for line in format_transform_figure(report).splitlines()
        if not line.lstrip().startswith("proved DOALL")
    )


def mismatched(rendered, reference):
    """Titles whose rendered block differs from the reference block."""
    return sorted(
        title for title in reference if rendered.get(title) != reference[title]
    )


def digest(values):
    """Order-sensitive sha256 over the ``repr`` of each value."""
    hasher = hashlib.sha256()
    for value in values:
        hasher.update(repr(value).encode())
        hasher.update(b"\0")
    return hasher.hexdigest()


def grid_digest(results):
    """Digest of one program's ``{config name: EvaluationResult}``."""
    return digest(
        (name, result.speedup, result.coverage)
        for name, result in results.items()
    )


def analysis_digest(rows, decisions):
    """Digest of one program's verdicts and vectorizer decisions."""
    return digest([row.to_dict() for row in rows]
                  + [sorted(d.items()) for d in decisions])
