"""The chunked seeding contract: per-instance randomness keys on the index.

:mod:`repro.mc` draws Monte-Carlo populations in chunks and promises that
the sample stream is independent of the chunking.  That only holds when a
function drawing per-instance randomness derives instance ``i``'s RNG from
``i`` itself -- the documented pattern of
:meth:`repro.technology.variation.VariationModel.sample` and
:meth:`repro.core.yield_analysis.ComponentVariation.sample_instances`::

    rng = np.random.default_rng((self.seed, instance))          # OK
    rng = np.random.default_rng((seed, tag, first_instance + i))  # OK
    streams = instance_streams((seed, tag), first_instance, n)  # OK
    rng = np.random.default_rng(self.seed)                      # VIOLATION
    streams = instance_streams((seed, tag), 0, n)               # VIOLATION

The chunk-seeding helpers of :mod:`repro.technology.streams` count as
constructors: they key each stream on ``first_instance + k``, so their
arguments must mention the function's instance parameter just like a
NumPy constructor's seed.

The rule fires when a function that declares an instance-index parameter
(``instance`` / ``first_instance`` / ``instance_index``) constructs a
generator whose seed expression never mentions that parameter: every
instance would then share one stream and the draw would depend on how the
population was chunked.  Functions without an instance parameter are not
per-instance draws and are never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import SourceFile, Violation, rule
from repro.lint.imports import ImportTable

RULE = "seeding-contract"

#: Parameter names that mark a function as drawing per-instance randomness.
INSTANCE_PARAMS = frozenset({"instance", "first_instance", "instance_index"})

#: Generator constructors whose seed expression must key on the index.
_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "random.Random",
    "repro.technology.streams.instance_states",
    "repro.technology.streams.instance_streams",
}


def _own_body_nodes(function: ast.AST) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested scopes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested scope: it declares (or not) its own params
        stack.extend(ast.iter_child_nodes(node))


def _instance_params(function: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    arguments = function.args
    names = {
        arg.arg
        for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs)
    }
    return names & INSTANCE_PARAMS


@rule(
    RULE,
    "per-instance RNG must derive its seed from the instance index",
    scopes=("src",),
)
def check(source: SourceFile) -> Iterator[Violation]:
    imports = ImportTable(source.tree)
    for function in ast.walk(source.tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = _instance_params(function)
        if not params:
            continue
        for node in _own_body_nodes(function):
            if not isinstance(node, ast.Call):
                continue
            if imports.resolve(node.func) not in _CONSTRUCTORS:
                continue
            referenced = {
                name.id
                for argument in (*node.args, *(kw.value for kw in node.keywords))
                for name in ast.walk(argument)
                if isinstance(name, ast.Name)
            }
            if not referenced & params:
                names = " / ".join(sorted(params))
                yield source.violation(
                    node,
                    RULE,
                    f"RNG seed does not mention the instance index ({names}); "
                    "chunked draws must key instance i's stream on i itself "
                    "(e.g. default_rng((seed, instance))) or the sample "
                    "stream depends on the chunk size",
                )
