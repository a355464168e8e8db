"""Regenerate the ``eco_qor`` table of ``perfbench/expected.json``.

For every carry->mux edit that ``service_mixed`` can draw, the table
holds ``[final STA delay, registers, LUTs]`` of a cold multiple-class
retiming of the edited datapath base under the XC4000E delay model,
which is what the service reports for that ECO job.  Run from the
repository root (takes a few minutes)::

    python3 perfbench/expected_eco.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.mcretime import mc_retime  # noqa: E402
from repro.netlist import circuit_stats, read_blif, write_blif  # noqa: E402
from repro.synth import DATAPATH_NAMES, build_datapath  # noqa: E402
from repro.timing import XC4000E_DELAY, analyze  # noqa: E402

from service import carries, carry_to_mux  # noqa: E402


def measure(edited: str) -> list:
    out = mc_retime(read_blif(edited), delay_model=XC4000E_DELAY).circuit
    stats = circuit_stats(out)
    return [analyze(out, XC4000E_DELAY).max_delay, stats.n_ff, stats.n_lut]


def main() -> None:
    path = HERE / "expected.json"
    expected = json.loads(path.read_text())
    table = {}
    for base in DATAPATH_NAMES:
        text = write_blif(build_datapath(base).circuit)
        table[base] = {
            gate: measure(carry_to_mux(text, gate)[1]) for gate in carries(text)
        }
        print(f"{base}: {len(table[base])} edits", file=sys.stderr)
    expected["eco_qor"] = table
    # one line per edit keeps the file diffable
    text = re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]",
        lambda m: "[" + ", ".join(v.strip() for v in m.group(1).split(",")) + "]",
        json.dumps(expected, indent=2),
    )
    path.write_text(text + "\n")


if __name__ == "__main__":
    main()
