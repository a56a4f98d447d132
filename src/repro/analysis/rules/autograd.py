"""``backward-grad-inplace``: backward closures never write into their gradient.

``Tensor._accumulate`` (``repro/nn/tensor.py``) lets an interior node
*borrow* its first incoming gradient instead of copying it.  The array a
backward closure receives may therefore be the same buffer another node
holds — both parents of an ``__add__`` get the identical array — or a view
of one (``reshape``, ``transpose``).  A closure that writes into it changes
a sibling's gradient behind its back, and the parameters train on the
wrong numbers without any error.

Inside a ``backward(grad)`` closure nested in a function under
``src/repro/nn/``, the rule flags:

* augmented assignment to the gradient (``grad *= mask``);
* assignment through a subscript of it (``grad[mask] = 0``);
* the gradient as a ufunc's output (``np.multiply(grad, s, out=grad)``);
* ``np.copyto(grad, ...)``.

Correct pattern — write into a fresh local instead::

    local = grad - inner        # new array owned by the closure
    local *= out_data           # in place on the local: fine
    self._accumulate(local)
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..core import FileContext, Finding, Rule, enclosing_symbol, register


def _base_name(node: ast.AST) -> Optional[str]:
    """``grad`` for ``grad``, ``grad[i]``, ``grad[i][j]``; else None."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _nested_backward_closures(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    """``def backward(...)`` statements defined inside another function."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    stack = [(tree, False)]
    while stack:
        node, inside_function = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, functions):
                if inside_function and child.name == "backward" and child.args.args:
                    yield child
                stack.append((child, True))
            else:
                stack.append((child, inside_function))


@register
class BackwardGradInplaceRule(Rule):
    """Flag in-place writes into the gradient a backward closure receives."""

    name = "backward-grad-inplace"
    description = (
        "backward closures must not write into the gradient they receive: "
        "interior gradients are borrowed and may be shared with a sibling"
    )
    default_paths = ("src/repro/nn/",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for closure in _nested_backward_closures(ctx.tree):
            grad = closure.args.args[0].arg
            for node in ast.walk(closure):
                write = self._write(node, grad)
                if write is not None:
                    yield Finding(
                        path=ctx.path, line=node.lineno, column=node.col_offset,
                        rule=self.name,
                        symbol=enclosing_symbol(ctx.tree, node),
                        message=(
                            f"{write} writes into the received gradient "
                            f"'{grad}', which may be shared with a sibling "
                            f"node; compute into a fresh local array instead"
                        ),
                    )

    @staticmethod
    def _write(node: ast.AST, grad: str) -> Optional[str]:
        """Describe how ``node`` writes into ``grad`` in place, or None."""
        if isinstance(node, ast.AugAssign) and _base_name(node.target) == grad:
            return "augmented assignment"
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Subscript) and _base_name(target) == grad
            for target in node.targets
        ):
            return "subscript assignment"
        if not isinstance(node, ast.Call):
            return None
        for keyword in node.keywords:
            if keyword.arg != "out":
                continue
            outputs = keyword.value.elts if isinstance(keyword.value, ast.Tuple) else [keyword.value]
            if any(_base_name(output) == grad for output in outputs):
                return "out="
        func = node.func
        func_name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if func_name == "copyto" and node.args and _base_name(node.args[0]) == grad:
            return "copyto"
        return None
