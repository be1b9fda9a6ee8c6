"""Linear-algebra kernel core: semirings and the SpMV/SpMSpV products
every vertex program's compute phase is (GraphBLAST-style; see
docs/kernels.md).

* :mod:`repro.la.semiring` — the semiring catalog (min-plus, min-first,
  plus-times) with the exact dtype/cast contract the kernels keep;
* :mod:`repro.la.spmv` — blocked SpMSpV (push) and cached SpMV (pull);
* :mod:`repro.la.direction` — the generic frontier-density push/pull
  selector ``bfs-do`` runs on.

This is the only implementation of bfs / bfs-do / sssp / cc / cc-pj /
pr / pr-push.  The hand-rolled loop kernels it replaced survive as the
golden table ``tests/cases/kernel_golden.json``, which tier-1 holds
this path to, bit for bit.
"""
