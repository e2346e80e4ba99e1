#!/usr/bin/env python
"""Regenerate the paper's complete evaluation in one run.

Prints every table and figure of the paper (Tables 1-5, Figures 6-15)
and checks every quantitative claim against its anchor, in the text
form the benchmark harness archives: Figures 6-11, 13-15 and Table 5
come from the same study table ``repro report`` prints.  This is the
"reproduce the paper" button.

Run:  python examples/paper_evaluation.py    (under a second)
"""

from repro.analysis import (
    STUDIES,
    figure12_area_combined,
    render_validation,
    table1_parameters,
    table2_kernel_characteristics,
    table4_suite,
    validate_all,
)
from repro.analysis.report import format_table


def banner(text: str) -> None:
    print()
    print("=" * 72)
    print(text)
    print("=" * 72)


def main() -> None:
    banner("Table 1: Summary of Parameters")
    print(format_table(("Param", "Value", "Description"),
                       table1_parameters()))

    banner("Table 2: Kernel Inner Loop Characteristics (measured = paper)")
    rows = []
    for name, row in table2_kernel_characteristics().items():
        m = row["measured"]
        rows.append((name, m.alu_ops, m.srf_accesses, m.comms,
                     m.sp_accesses))
    print(format_table(
        ("Kernel", "ALU", "SRF", "COMM", "SP"), rows))

    banner("Table 4: Kernels and Applications")
    print(format_table(
        ("Name", "Data", "Kind", "Description"),
        [(r.name, r.datatype, r.kind, r.description)
         for r in table4_suite()],
    ))

    banner("Figures 6-11, 13-15 and Table 5")
    for study in STUDIES.values():
        print(study.text())
        print()

    banner("Figure 12: combined scaling (area/ALU vs total ALUs)")
    for n, series in sorted(figure12_area_combined().items()):
        line = "  ".join(f"{alus}:{area:.2f}" for alus, area in series)
        print(f"N={n:2d}:  {line}")

    banner("Paper claims")
    print(render_validation(validate_all()))


if __name__ == "__main__":
    main()
