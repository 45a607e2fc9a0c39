"""backend-dispatch: nn/serving code must route kernels through Backend.

The repo's cross-backend bit-parity guarantee (PR 3) holds only while
every hot array primitive under :mod:`repro.nn` and :mod:`repro.serving`
dispatches through the active :class:`repro.nn.backend.Backend` — a
direct ``np.matmul`` / ``np.dot`` / ``np.einsum`` / scipy kernel call
silently pins that operation to one substrate and is exactly the bug
class behind the threaded backend's 2-D matmul row-split parity break that
PR 4 had to fix at runtime.  :mod:`repro.nn.backend` itself is the
sanctioned home of raw kernel calls and is exempt.
"""

from __future__ import annotations

import ast

from ..astutil import attribute_chain, collect_imports
from ..findings import Finding
from ..registry import Rule, package_path, register_rule

__all__ = ["BackendDispatchRule", "NUMPY_KERNELS"]

#: numpy entry points that run a GEMM/contraction kernel directly.
NUMPY_KERNELS = frozenset({"matmul", "dot", "einsum", "inner", "tensordot", "vdot"})

#: Package subtrees whose kernel calls must go through the Backend.
_SCOPED = ("repro/nn/", "repro/serving/", "repro/tune/")

#: The one module allowed to touch kernels directly.
_EXEMPT = "repro/nn/backend.py"


@register_rule
class BackendDispatchRule(Rule):
    """Flag direct numpy/scipy kernel calls inside repro.nn / repro.serving / repro.tune."""
    name = "backend-dispatch"
    description = (
        "repro.nn / repro.serving / repro.tune code must not call numpy/scipy "
        "GEMM kernels (np.matmul, np.dot, np.einsum, scipy.*) directly; route "
        "through the Backend protocol so cross-backend bit-parity holds"
    )

    def applies_to(self, path: str) -> bool:
        pkg = package_path(path)
        return (
            pkg is not None
            and pkg != _EXEMPT
            and any(pkg.startswith(prefix) for prefix in _SCOPED)
        )

    def check(self, tree: ast.Module, path: str) -> list[Finding]:
        imports = collect_imports(tree)
        findings: list[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain is None:
                continue
            qualified = imports.qualify(chain)
            if qualified is None:
                continue
            parts = qualified.split(".")
            if parts[0] == "numpy" and len(parts) == 2 and parts[1] in NUMPY_KERNELS:
                findings.append(
                    self.finding(
                        path,
                        node,
                        f"direct kernel call numpy.{parts[1]} bypasses the Backend "
                        "protocol; use current_backend() so the op stays "
                        "backend-dispatched (bit-parity)",
                    )
                )
            elif parts[0] == "scipy":
                findings.append(
                    self.finding(
                        path,
                        node,
                        f"scipy kernel call {qualified} bypasses the Backend "
                        "protocol; route through current_backend()",
                    )
                )
        return findings
