"""The repo-specific promlint rules (PL001–PL005).

Each rule machine-checks one invariant the concurrent runtime's
correctness rests on (DESIGN.md §5–§8):

* **PL001** — published snapshots/segments are immutable; in-place
  writes to snapshot-derived arrays corrupt lock-free readers.
* **PL002** — shard locks are taken in ascending order through
  ``acquire_shards``; direct lock access or blocking calls under held
  shard locks are deadlock/starvation hazards.
* **PL003** — ``core/`` raises the :mod:`repro.core.exceptions`
  taxonomy, never bare ``ValueError``/``RuntimeError``.
* **PL004** — ``core/`` is checkpoint-covered: every RNG must be
  seeded and wall-clock reads kept out, or warm restarts stop being
  bit-identical.
* **PL005** — no mutable default arguments or module-level mutable
  containers in ``core/``; shared mutable state breaks snapshot
  isolation across threads.
"""

from __future__ import annotations

import ast

from .rules import Rule, register
from .visitor import (
    ScopedVisitor,
    attr_base_name,
    call_method_name,
    dotted_name,
    literal_int_set,
)

# Calls whose results are frozen snapshot/segment state (PL001).
# current_bundle() hands out a detector's published bundle,
# evaluation_view()/restrict() the evaluation state built over it, and
# panels()/row_norms()/gather_base() the shared kernel caches behind it
# (DESIGN.md §9) — all are read by lock-free evaluates and must never
# be written through.
SNAPSHOT_SOURCES = frozenset(
    {
        "detector_snapshot", "column_segment", "column_segments", "snapshot",
        "current_bundle", "evaluation_view", "restrict", "panels", "row_norms",
        "gather_base",
    }
)
SNAPSHOT_CONSTRUCTORS = frozenset(
    {
        "ComposeSnapshot", "SegmentBundle", "SegmentedField",
        "BlockColumn", "EvaluationView", "SegmentLayout",
    }
)
# Methods that mutate their receiver in place (ndarray + container set).
INPLACE_METHODS = frozenset(
    {
        "fill", "sort", "partition", "put", "resize", "byteswap",
        "append", "extend", "insert", "remove", "clear", "update",
        "setdefault", "popitem",
    }
)
# numpy functions that mutate their first argument in place.
NUMPY_INPLACE = frozenset(
    {"copyto", "put", "place", "putmask", "fill_diagonal"}
)

# Calls that block, and must not run under held shard locks (PL002).
BLOCKING_CALLS = frozenset({"put", "drain", "fsync", "join", "sleep", "wait"})

# Legacy numpy global-RNG entry points (PL004).
NUMPY_GLOBAL_RNG = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "shuffle", "permutation", "choice", "normal", "uniform",
        "standard_normal",
    }
)

# Constructors whose results are mutable (PL005).
MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter"}
)
NUMPY_ARRAY_FACTORIES = frozenset({"array", "zeros", "ones", "empty", "full"})


class _SnapshotTaintVisitor(ScopedVisitor):
    """Tracks names bound from snapshot sources and flags mutations."""

    def __init__(self, rule, context):
        super().__init__()
        self.rule = rule
        self.context = context
        self.findings = []

    # -- taint computation ---------------------------------------------------------
    def _is_tainted(self, node) -> bool:
        if isinstance(node, ast.Name):
            return self.lookup(node.id) == "snapshot"
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            return self._is_tainted(node.value)
        if isinstance(node, ast.Call):
            name = call_method_name(node)
            if name in SNAPSHOT_SOURCES and isinstance(node.func, ast.Attribute):
                return True
            if name in SNAPSHOT_SOURCES and isinstance(node.func, ast.Name):
                return True
            if name in SNAPSHOT_CONSTRUCTORS:
                return True
            # copy.deepcopy(snapshot) etc. produce private state again
            return False
        if isinstance(node, (ast.Tuple, ast.List)):
            return any(self._is_tainted(element) for element in node.elts)
        if isinstance(node, ast.Starred):
            return self._is_tainted(node.value)
        return False

    def _bind_target(self, target, tainted: bool) -> None:
        if isinstance(target, ast.Name):
            self.bind(target.id, "snapshot" if tainted else None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, tainted)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, tainted)

    def _flag(self, node, message: str) -> None:
        self.findings.append(self.rule.finding(self.context, node, message))

    def _name_of(self, node) -> str:
        return attr_base_name(node) or "<expr>"

    # -- binds ---------------------------------------------------------------------
    def visit_Assign(self, node):
        """Propagate taint through assignments; flag stores into taints."""
        tainted_value = self._is_tainted(node.value)
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                if self._is_tainted(target.value):
                    self._flag(
                        node,
                        f"in-place write to snapshot-derived object "
                        f"{self._name_of(target)!r}; published snapshots and "
                        f"column segments are immutable — copy before mutating",
                    )
            else:
                self._bind_target(target, tainted_value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        """Taint-track annotated assignments like plain ones."""
        if node.value is not None:
            tainted = self._is_tainted(node.value)
            if isinstance(node.target, ast.Name):
                self._bind_target(node.target, tainted)
            elif isinstance(
                node.target, (ast.Attribute, ast.Subscript)
            ) and self._is_tainted(node.target.value):
                self._flag(
                    node,
                    f"in-place write to snapshot-derived object "
                    f"{self._name_of(node.target)!r}",
                )
        self.generic_visit(node)

    def visit_NamedExpr(self, node):
        """Track walrus bindings."""
        if isinstance(node.target, ast.Name):
            self._bind_target(node.target, self._is_tainted(node.value))
        self.generic_visit(node)

    def visit_With(self, node):
        """Propagate taint through ``with expr as name``."""
        for item in node.items:
            if item.optional_vars is not None:
                self._bind_target(
                    item.optional_vars, self._is_tainted(item.context_expr)
                )
        self.generic_visit(node)

    def visit_For(self, node):
        """Iterating a tainted collection taints the loop variable."""
        self._bind_target(node.target, self._is_tainted(node.iter))
        self.generic_visit(node)

    # -- violations ----------------------------------------------------------------
    def visit_AugAssign(self, node):
        """``+=`` against snapshot-derived arrays is an in-place write."""
        target = node.target
        if isinstance(target, ast.Name) and self.lookup(target.id) == "snapshot":
            self._flag(
                node,
                f"augmented assignment mutates snapshot-derived array "
                f"{target.id!r} in place",
            )
        elif isinstance(target, (ast.Attribute, ast.Subscript)) and self._is_tainted(
            target.value
        ):
            self._flag(
                node,
                f"augmented assignment into snapshot-derived object "
                f"{self._name_of(target)!r}",
            )
        self.generic_visit(node)

    def visit_Delete(self, node):
        """Deleting attrs/items of snapshot-derived objects mutates them."""
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)) and self._is_tainted(
                target.value
            ):
                self._flag(
                    node,
                    f"del on snapshot-derived object {self._name_of(target)!r}",
                )
        self.generic_visit(node)

    def visit_Call(self, node):
        """Flag in-place methods and numpy in-place kernels on taints."""
        name = call_method_name(node)
        if (
            isinstance(node.func, ast.Attribute)
            and name in INPLACE_METHODS
            and self._is_tainted(node.func.value)
        ):
            self._flag(
                node,
                f"in-place method .{name}() on snapshot-derived object "
                f"{self._name_of(node.func)!r}",
            )
        resolved = self.context.resolve_call(node)
        if resolved is not None:
            tail = resolved.rsplit(".", 1)[-1]
            if (
                resolved.startswith("numpy.")
                and tail in NUMPY_INPLACE
                and node.args
                and self._is_tainted(node.args[0])
            ):
                self._flag(
                    node,
                    f"{tail}() writes into snapshot-derived array "
                    f"{self._name_of(node.args[0])!r} in place",
                )
        for keyword in node.keywords:
            if keyword.arg == "out" and self._is_tainted(keyword.value):
                self._flag(
                    node,
                    f"out= targets snapshot-derived array "
                    f"{self._name_of(keyword.value)!r}",
                )
        self.generic_visit(node)


@register
class SnapshotMutationRule(Rule):
    """PL001: in-place writes to published snapshot/segment state."""

    rule_id = "PL001"
    title = "snapshot-mutation"
    rationale = (
        "detector_snapshot()/ComposeSnapshot/column_segment* results are "
        "published to lock-free readers; mutating them in place corrupts "
        "concurrent evaluates (DESIGN.md §5–§6)"
    )

    def check(self, context) -> list:
        """Run the taint visitor over the file."""
        visitor = _SnapshotTaintVisitor(self, context)
        visitor.visit(context.tree)
        return visitor.findings


class _LockDisciplineVisitor(ScopedVisitor):
    """Tracks ``acquire_shards`` with-blocks and direct lock touches."""

    SHARD_LOCK_ATTRS = frozenset({"_shard_locks", "_lock"})

    def __init__(self, rule, context):
        super().__init__()
        self.rule = rule
        self.context = context
        self.findings = []
        # Stack of statically-known shard-id sets (None = unknown/all).
        self._held = []

    def _flag(self, node, message: str) -> None:
        self.findings.append(self.rule.finding(self.context, node, message))

    def _acquire_shards_ids(self, node):
        """``(is_acquire, ids)`` for a with-item context expression."""
        if not (
            isinstance(node, ast.Call)
            and call_method_name(node) == "acquire_shards"
        ):
            return False, None
        if not node.args:
            return True, None
        return True, literal_int_set(node.args[0])

    def _is_foreign_lock_touch(self, node):
        """An attribute chain reaching a shard lock not through ``self``."""
        if not isinstance(node, ast.Attribute):
            return False
        if node.attr not in self.SHARD_LOCK_ATTRS:
            return False
        base = node.value
        return not (isinstance(base, ast.Name) and base.id == "self")

    def visit_With(self, node):
        """Track held shard-lock sets; flag nesting hazards and raw locks."""
        pushed = 0
        for item in node.items:
            expr = item.context_expr
            # ``with shard._lock:`` / ``with store._shard_locks[i]:``
            probe = expr
            while isinstance(probe, ast.Subscript):
                probe = probe.value
            if self._is_foreign_lock_touch(probe):
                self._flag(
                    expr,
                    "direct shard-lock context manager; take shard locks "
                    "through acquire_shards() so ordering stays ascending",
                )
            is_acquire, ids = self._acquire_shards_ids(expr)
            if is_acquire:
                if self._held:
                    outer = self._held[-1]
                    ordered = (
                        outer is not None
                        and ids is not None
                        and outer
                        and ids
                        and min(ids) > max(outer)
                    )
                    if not ordered:
                        self._flag(
                            expr,
                            "nested acquire_shards() under held shard locks; "
                            "ascending order cannot be proven — acquire every "
                            "needed shard in one acquire_shards() call",
                        )
                self._held.append(ids)
                pushed += 1
        try:
            self.generic_visit(node)
        finally:
            for _ in range(pushed):
                self._held.pop()

    def visit_Call(self, node):
        """Flag raw acquire/release and blocking calls under shard locks."""
        name = call_method_name(node)
        if (
            isinstance(node.func, ast.Attribute)
            and name in {"acquire", "release"}
        ):
            probe = node.func.value
            while isinstance(probe, ast.Subscript):
                probe = probe.value
            if self._is_foreign_lock_touch(probe):
                self._flag(
                    node,
                    f"direct .{name}() on a shard lock; use acquire_shards() "
                    f"(ascending order, holder bookkeeping) instead",
                )
        if self._held and name in BLOCKING_CALLS:
            resolved = self.context.resolve_call(node) or ""
            # time.sleep / os.fsync / queue.put / loop.drain / thread.join
            self._flag(
                node,
                f"blocking call {resolved or name}() while holding shard "
                f"locks; maintenance must not stall readers or risk "
                f"lock-order inversion — move it outside acquire_shards()",
            )
        self.generic_visit(node)


@register
class LockDisciplineRule(Rule):
    """PL002: shard-lock discipline (ascending order via acquire_shards)."""

    rule_id = "PL002"
    title = "lock-discipline"
    rationale = (
        "shard locks are deadlock-free only because every holder takes "
        "them ascending through acquire_shards(); raw lock access, "
        "unprovable nesting, and blocking calls under held locks break "
        "that proof (DESIGN.md §5)"
    )

    def check(self, context) -> list:
        """Run the lock-discipline visitor over the file."""
        visitor = _LockDisciplineVisitor(self, context)
        visitor.visit(context.tree)
        return visitor.findings


@register
class ExceptionTaxonomyRule(Rule):
    """PL003: bare ValueError/RuntimeError raised in core/."""

    rule_id = "PL003"
    title = "exception-taxonomy"
    rationale = (
        "core/ raises the repro.core.exceptions taxonomy so callers can "
        "catch PromError as one family; bare builtins fracture error "
        "handling across the serving plane"
    )
    core_only = True

    SUGGESTION = {
        "ValueError": "ConfigurationError (bad argument) or ValidationError (bad data)",
        "RuntimeError": "NotFittedError, InternalError, or a ServingError subclass",
    }

    def check(self, context) -> list:
        """Flag every ``raise ValueError/RuntimeError`` in the file."""
        findings = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in self.SUGGESTION:
                findings.append(
                    self.finding(
                        context,
                        node,
                        f"bare {name} raised in core/; use "
                        f"{self.SUGGESTION[name]} from core/exceptions.py",
                    )
                )
        return findings


@register
class DeterminismRule(Rule):
    """PL004: unseeded RNGs and wall-clock reads in core/."""

    rule_id = "PL004"
    title = "determinism"
    rationale = (
        "core/ state is checkpointed with its RNG states (DESIGN.md §7); "
        "an unseeded generator, the global numpy/random RNGs, or a "
        "wall-clock read makes warm restarts diverge from the recorded "
        "bit-identical stream"
    )
    core_only = True

    def _unseeded(self, call: ast.Call) -> bool:
        if not call.args and not call.keywords:
            return True
        if call.args and isinstance(call.args[0], ast.Constant):
            return call.args[0].value is None
        return False

    def check(self, context) -> list:
        """Flag nondeterministic entry points reachable from core/."""
        findings = []
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = context.resolve_call(node)
            if resolved is None:
                continue
            if resolved == "time.time":
                findings.append(
                    self.finding(
                        context,
                        node,
                        "wall-clock time.time() in core/; use a caller-supplied "
                        "timestamp or time.perf_counter() for durations only",
                    )
                )
            elif resolved == "numpy.random.default_rng" and self._unseeded(node):
                findings.append(
                    self.finding(
                        context,
                        node,
                        "unseeded np.random.default_rng() in core/; pass an "
                        "explicit seed so checkpoints can capture the RNG state",
                    )
                )
            elif (
                resolved.startswith("numpy.random.")
                and resolved.rsplit(".", 1)[-1] in NUMPY_GLOBAL_RNG
            ):
                findings.append(
                    self.finding(
                        context,
                        node,
                        f"global numpy RNG call {resolved}() in core/; use a "
                        f"seeded np.random.Generator instance",
                    )
                )
            elif resolved.startswith("random."):
                findings.append(
                    self.finding(
                        context,
                        node,
                        f"stdlib global RNG call {resolved}() in core/; use a "
                        f"seeded np.random.Generator instance",
                    )
                )
        return findings


@register
class MutableSharedStateRule(Rule):
    """PL005: mutable defaults and module-level mutable containers in core/."""

    rule_id = "PL005"
    title = "mutable-shared-state"
    rationale = (
        "mutable default arguments and module-level containers are "
        "shared across every thread and snapshot; a stray write leaks "
        "state between otherwise-isolated serving readers"
    )
    core_only = True

    def _is_mutable_literal(self, node) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            name = call_method_name(node)
            if name in MUTABLE_FACTORIES:
                return True
            target = dotted_name(node.func) or ""
            if "." in target and target.rsplit(".", 1)[-1] in NUMPY_ARRAY_FACTORIES:
                return True
        return False

    def _module_level_statements(self, tree: ast.Module):
        stack = list(tree.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.If, ast.Try)):
                for part in ast.iter_child_nodes(node):
                    if isinstance(part, ast.stmt):
                        stack.append(part)
                continue
            yield node

    def check(self, context) -> list:
        """Flag mutable defaults everywhere, mutable globals at module level."""
        findings = []
        for node in self._module_level_statements(context.tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            names = [
                target.id for target in targets if isinstance(target, ast.Name)
            ]
            if not names or names == ["__all__"]:
                continue
            if self._is_mutable_literal(value):
                findings.append(
                    self.finding(
                        context,
                        node,
                        f"module-level mutable container {', '.join(names)!s}; "
                        f"freeze it (tuple/frozenset/Mapping) or suppress with "
                        f"a rationale if it is a write-once registry",
                    )
                )
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if self._is_mutable_literal(default):
                    label = getattr(node, "name", "<lambda>")
                    findings.append(
                        self.finding(
                            context,
                            default,
                            f"mutable default argument in {label}(); "
                            f"default to None and construct inside the body",
                        )
                    )
        return findings
