"""The repo-specific lint rules: the table :data:`RULES`.

Each rule encodes one invariant of the verification spine — the
properties the store-equivalence matrix and the chaos suite rely on but
could previously only catch *after* they broke a decision stream.  A
rule is one row at the bottom of this module: its code, name and
summary (``python -m repro.analysis --list-rules`` prints them), the
contexts it ``applies`` to, and the ``check`` that yields
``(node, message)`` pairs.  The checks are the functions above the
table; three rows share one of them, :func:`_banned`.

Rules deliberately prefer *precision* over recall: each one flags only
patterns it can judge statically with no false positives on the real
tree, and the fixture suite (``tests/analysis/fixtures``) proves every
rule still fires.  Genuinely intended exceptions carry
``# repro: allow[RPRnnn]`` at the site, so the waiver is visible in
review next to its justification.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import ModuleContext, Rule
from repro.confed.hooks import EVENTS as HOOK_EVENTS

#: What a check yields: the offending node and the message for it.
Found = Iterator[Tuple[ast.AST, str]]

#: Concrete update-store classes the engine must never type-switch on.
STORE_CLASS_NAMES: Tuple[str, ...] = (
    "UpdateStore",
    "MemoryUpdateStore",
    "CentralUpdateStore",
    "DhtUpdateStore",
    "DurableUpdateStore",
    "DirectLogStore",
)

#: Wall-clock reads that would make a decision path time-dependent.
WALL_CLOCK_ATTRS: Tuple[str, ...] = (
    "time",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "time_ns",
)

#: Mutating methods of the memo mapping that must stay behind the
#: helpers in ``core/cache.py``.
MEMO_MUTATORS: Tuple[str, ...] = (
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
)

#: Module-level dict literals whose string keys *and* values are
#: message kinds: request -> reply, and kind -> handler.  A reply is
#: sent as ``REPLIES[kind]``, not as a literal, so without this arm a
#: typo'd reply kind would pass the send check.
TABLE_NAMES: Tuple[str, ...] = ("REPLIES", "HANDLERS")

#: Callee -> position of its message-kind argument: ``Network.send(sender,
#: recipient, kind)`` and the DHT request engine's entry points, through
#: which a driver sends (``client.exchange(store, node, kind)``,
#: ``.batched(store, node, kind)``, ``.request(store, node, key, kind)``,
#: ``.tell(store, sender, to, kind)``).
KIND_POSITION = {"send": 2, "exchange": 2, "batched": 2, "request": 3, "tell": 3}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _nodes(scope: ast.AST, only: Optional[str] = None) -> Iterator[ast.AST]:
    """Nodes under ``scope`` in source order, minus the subtrees of the
    functions defined in it — every one, or only those named ``only``."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, _FUNCTIONS) and only in (None, child.name):
            continue
        yield child
        yield from _nodes(child, only)


def _string(node: Optional[ast.AST]) -> Optional[str]:
    """The value of a string literal, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


#: A row's own test of a call ``receiver.name(...)`` the shared walk did
#: not flag: ``(call, receiver, name)`` -> its message, or None.
Extra = Callable[[ast.Call, str, str], Optional[str]]


def _banned(
    module: str,
    banned: Callable[[str], bool],
    advice: str,
    extra: Extra = lambda call, receiver, name: None,
) -> Callable[[ast.Module, ModuleContext], Found]:
    """The check RPR002, RPR003 and RPR010 share: flag ``from <module>
    import <name>`` and ``<module>.<name>(...)`` for every name ``banned``
    accepts, telling the user ``advice``; ``extra`` sees every other
    call on a bare name."""

    def check(tree: ast.Module, context: ModuleContext) -> Found:
        """Walk ``tree`` once, flagging banned imports and calls."""
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == module:
                names = [alias.name for alias in node.names if banned(alias.name)]
                if names:
                    yield node, f"from {module} import {', '.join(names)} {advice}"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
            ):
                receiver, name = node.func.value.id, node.func.attr
                if receiver == module and banned(name):
                    yield node, f"{module}.{name}() {advice}"
                elif (message := extra(node, receiver, name)) is not None:
                    yield node, message

    return check


def _argless_random(call: ast.Call, receiver: str, name: str) -> Optional[str]:
    """RPR002's extra case: ``random.Random()`` seeded from the OS."""
    if (receiver, name) == ("random", "Random") and not (call.args or call.keywords):
        return (
            "argless random.Random() seeds from the OS — pass an explicit "
            "seed so runs reproduce"
        )
    return None


_WALL_CLOCK_ADVICE = (
    "in a decision path makes outcomes time-dependent; charge simulated "
    "latency via PerfCounters and pay it through pay_latency"
)


def _date_now(call: ast.Call, receiver: str, name: str) -> Optional[str]:
    """RPR003's extra case: ``datetime.now()``/``date.today()`` and kin —
    class methods, so there is no ``from ... import`` form to ban."""
    if receiver in ("datetime", "date") and name in ("now", "utcnow", "today"):
        return f"{receiver}.{name}() {_WALL_CLOCK_ADVICE}"
    return None


def _store_type_checks(tree: ast.Module, context: ModuleContext) -> Found:
    """RPR001: ``isinstance``/``type()`` switches on imported store classes."""
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[:2] == ["repro", "store"]
        for alias in node.names
        if alias.name in STORE_CLASS_NAMES or alias.asname in STORE_CLASS_NAMES
    }
    if not imported:
        return
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            second = node.args[1]
            sides = second.elts if isinstance(second, (ast.Tuple, ast.List)) else [second]
        elif isinstance(node, ast.Compare) and any(
            # type(x) is StoreClass  /  type(x) == StoreClass
            isinstance(side, ast.Call)
            and isinstance(side.func, ast.Name)
            and side.func.id == "type"
            for side in (node.left, *node.comparators)
        ):
            sides = [node.left, *node.comparators]
        else:
            continue
        target = next(
            (s.id for s in sides if isinstance(s, ast.Name) and s.id in imported),
            None,
        )
        if target is not None:
            yield node, (
                f"type check against store class {target!r}; the engine "
                f"routes on what the batch carries, never on concrete store types"
            )


def _direct_store_calls(tree: ast.Module, context: ModuleContext) -> Found:
    """RPR004: ``.store.method(...)`` calls outside ``_store_call`` (the
    mechanism itself)."""
    for node in _nodes(tree, only="_store_call"):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        value = node.func.value
        if (isinstance(value, ast.Attribute) and value.attr == "store") or (
            isinstance(value, ast.Name) and value.id == "store"
        ):
            yield node, (
                f"direct store call .store.{node.func.attr}(...) bypasses "
                f"_store_call — the store phase and perf accounting are skipped"
            )


def _hook_events(tree: ast.Module, context: ModuleContext) -> Found:
    """RPR005: unknown event names and ``_handlers`` pokes."""
    in_hooks_module = context.in_module("confed/hooks.py")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("emit", "_emit")
            and node.args
            and (event := _string(node.args[0])) is not None
            and event not in HOOK_EVENTS
        ):
            yield node, (
                f"emit of unknown hook event {event!r} — "
                f"HookBus.emit silently no-ops on unknown names; known "
                f"events: {', '.join(HOOK_EVENTS)}"
            )
        elif (
            not in_hooks_module
            and isinstance(node, ast.Attribute)
            and node.attr == "_handlers"
        ):
            yield node, (
                "direct access to HookBus._handlers bypasses the "
                "serialized, subscription-ordered dispatch"
            )


def _memo_mutations(tree: ast.Module, context: ModuleContext) -> Found:
    """RPR006: writes, deletes, and mutator calls on a ``._entries``."""

    def is_entries(expr: ast.AST) -> bool:
        """True when ``expr`` is an ``._entries`` attribute access."""
        return isinstance(expr, ast.Attribute) and expr.attr == "_entries"

    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = [node.target] if isinstance(node, ast.AugAssign) else node.targets
            verb = "deleting from" if isinstance(node, ast.Delete) else "writing into"
            for target in targets:
                if isinstance(target, ast.Subscript) and is_entries(target.value):
                    yield node, (
                        f"{verb} ._entries outside core/cache.py — the memo "
                        f"is mutated only by its helpers"
                    )
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MEMO_MUTATORS
            and is_entries(node.func.value)
        ):
            yield node, (
                f"._entries.{node.func.attr}(...) outside core/cache.py "
                f"— the memo is mutated only by its helpers"
            )


def _is_set_expression(expr: ast.AST) -> bool:
    """True when ``expr`` evidently builds a set."""
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_OPS):
        return _is_set_expression(expr.left) or _is_set_expression(expr.right)
    return isinstance(expr, (ast.Set, ast.SetComp)) or (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in ("set", "frozenset")
    )


def _set_iterations(tree: ast.Module, context: ModuleContext) -> Found:
    """RPR007: for/comprehension iteration over set-valued expressions.

    A light local-dataflow pass per scope (each function is its own):
    names assigned a set expression count as set-valued for iteration
    checks in that same scope (re-assignment to a non-set clears them).
    """
    scopes = [tree, *(node for node in ast.walk(tree) if isinstance(node, _FUNCTIONS))]
    for scope in scopes:
        nodes = list(_nodes(scope))
        set_names: Set[str] = set()
        for stmt in nodes:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                if _is_set_expression(stmt.value):
                    set_names.add(stmt.targets[0].id)
                else:
                    set_names.discard(stmt.targets[0].id)
        for stmt in nodes:
            if isinstance(stmt, ast.For):
                iters = [stmt.iter]
            elif isinstance(stmt, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                iters = [generator.iter for generator in stmt.generators]
            else:
                continue
            for candidate in iters:
                if _is_set_expression(candidate) or (
                    isinstance(candidate, ast.Name) and candidate.id in set_names
                ):
                    yield candidate, (
                        "iterating a set expression yields arbitrary order; "
                        "wrap in sorted(...) so downstream output is "
                        "deterministic"
                    )


def _assigned(tree: ast.Module, names: Sequence[str]) -> Iterator[ast.AST]:
    """Values of module-level ``NAME = ...`` / ``NAME: T = ...``."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            target = node.target if isinstance(node, ast.AnnAssign) else node.targets[0]
            if isinstance(target, ast.Name) and target.id in names:
                yield node.value


def _literals(node: ast.AST) -> List[ast.Constant]:
    """Every string literal under ``node``."""
    return [literal for literal in ast.walk(node) if _string(literal) is not None]


def _imported(tree: ast.Module, context: ModuleContext) -> Dict[str, ast.Module]:
    """Name -> parsed module for the modules ``tree`` imports from under
    ``src/`` (resolved by path, parsed on demand): ``from <package>
    import wire`` binds ``wire``; ``from <package>.wire import ...``
    files the module under its own name."""
    parts = Path(context.path).parts
    root = Path(*parts[: parts.index("src") + 1]) if "src" in parts else None
    found: Dict[str, ast.Module] = {}
    for node in tree.body:
        if not (root and isinstance(node, ast.ImportFrom) and node.module):
            continue
        package = root.joinpath(*node.module.split("."))
        sources = [package.with_suffix(".py")]
        sources += [package / f"{alias.name}.py" for alias in node.names]
        for source in sources:
            if source.is_file():
                found[source.stem] = ast.parse(source.read_text(encoding="utf-8"))
    return found


def _declared(tree: ast.Module, imported: Dict[str, ast.Module], name: str):
    """The value of the module-level ``name = ...`` of this module, or,
    one hop away, of a module it imports; None when undeclared."""
    for module in (tree, *imported.values()):
        for value in _assigned(module, (name,)):
            return value
    return None


def _send_kind(node: ast.AST) -> Optional[ast.Constant]:
    """The literal kind a call puts on the wire — the positional
    argument :data:`KIND_POSITION` names for the callee, or ``kind=`` —
    else None."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in KIND_POSITION
    ):
        return None
    position = KIND_POSITION[node.func.attr]
    candidate = node.args[position] if len(node.args) > position else None
    for keyword in node.keywords:
        if keyword.arg == "kind":
            candidate = keyword.value
    return candidate if _string(candidate) is not None else None


def _unregistered_kinds(tree: ast.Module, context: ModuleContext) -> Found:
    """RPR009: literal message kinds missing from the KINDS registry."""
    # Engage only for modules that actually speak the wire protocol:
    # at least one literal-kind send, or a protocol table.
    kinds = [kind for node in ast.walk(tree) if (kind := _send_kind(node)) is not None]
    for table in _assigned(tree, TABLE_NAMES):
        if isinstance(table, ast.Dict):
            for entry in (*table.keys, *table.values):
                kinds.extend(_literals(entry) if entry else ())
    if not kinds:
        return
    imported = _imported(tree, context)
    registry = _declared(tree, imported, "KINDS")
    declared = None if registry is None else {k.value for k in _literals(registry)}
    for kind in kinds:
        if declared is None:
            problem = (
                "is used but neither the module nor a module it imports "
                "from declares a KINDS registry to check it against"
            )
        elif kind.value not in declared:
            problem = (
                "is not in the KINDS registry — a typo here burns the "
                "whole retry budget before surfacing"
            )
        else:
            continue
        yield kind, f"message kind {kind.value!r} {problem}"
    yield from _unlisted_replies(tree, imported)


def _client_bound(recipient: ast.AST) -> bool:
    """A send addressed back to whoever asked: ``message.sender``, or a
    ``client`` / ``reply_to`` name or field the request carried."""
    if isinstance(recipient, ast.Subscript):
        return _string(recipient.slice) in ("client", "reply_to")
    name = getattr(recipient, "attr", getattr(recipient, "id", None))
    return name in ("sender", "client", "reply_to")


def _calls_reached(module: Optional[ast.Module], name: Optional[str]) -> Iterator[ast.Call]:
    """Every call in ``module``'s function ``name`` and, transitively, in
    the functions of the same module it calls by bare name."""
    functions = {
        node.name: node for node in getattr(module, "body", ()) if isinstance(node, _FUNCTIONS)
    }
    queue, seen = [name], set()
    while queue:
        function = functions.get(queue.pop())
        if function is None or function.name in seen:
            continue
        seen.add(function.name)
        for node in ast.walk(function):
            if isinstance(node, ast.Call):
                queue.append(getattr(node.func, "id", None))
                yield node


def _unlisted_replies(tree: ast.Module, imported: Dict[str, ast.Module]) -> Found:
    """RPR009's closure half: a kind a ``HANDLERS`` handler (or a helper
    it reaches) sends back to the requesting client must be in that
    request kind's ``REPLIES`` row, and only a kind with a row may be
    answered through ``_reply``."""
    handlers = _declared(tree, {}, "HANDLERS")
    replies = _declared(tree, imported, "REPLIES")
    if not isinstance(handlers, ast.Dict) or not isinstance(replies, ast.Dict):
        return
    rows = {
        _string(key): {literal.value for literal in _literals(value)}
        for key, value in zip(replies.keys, replies.values)
    }
    for key, value in zip(handlers.keys, handlers.values):
        kind = _string(key)
        row = rows.get(kind)
        if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
            owner, name = imported.get(value.value.id), value.attr
            where = f" ({value.value.id}.py"
        else:
            owner, name, where = tree, getattr(value, "id", None), None
        for call in _calls_reached(owner, name):
            callee = getattr(call.func, "attr", None)
            if callee == "_reply" and row is None:
                found, problem = call, (
                    f"answers through _reply, but REPLIES has no row for {kind!r}"
                )
            elif callee == "send" and row is not None and len(call.args) > 1:
                found = _send_kind(call)
                if found is None or found.value in row or not _client_bound(call.args[1]):
                    continue
                problem = (
                    f"sends {found.value!r} back to the client, but REPLIES[{kind!r}] "
                    "does not list it — the request engine drops it and retries"
                )
            else:
                continue
            # A send in another module is reported at the table entry.
            at = f"{where} line {found.lineno})" if where else ""
            yield (value if where else found), f"the {kind!r} handler{at} {problem}"


def _in_src(context: ModuleContext) -> bool:
    """The library itself: every ``src/`` module."""
    return context.realm == "src"


#: Every shipped rule, in code order.
RULES: Tuple[Rule, ...] = (
    Rule(
        "RPR001",
        "store-type-check",
        "isinstance/type() check against a store class outside store/ — "
        "route on what the batch carries instead",
        applies=lambda context: _in_src(context) and context.subpackage != "store",
        check=_store_type_checks,
    ),
    Rule(
        "RPR002",
        "unseeded-random",
        "module-level random.* or argless random.Random() — use an "
        "explicitly seeded random.Random(seed) substream",
        applies=lambda context: context.realm in ("src", "examples", "benchmarks"),
        check=_banned(
            "random",
            lambda name: name != "Random",
            "draws from the shared module-level RNG; use a seeded "
            "random.Random(seed) substream",
            extra=_argless_random,
        ),
    ),
    Rule(
        "RPR003",
        "wall-clock-in-decision-path",
        "wall-clock read in core/ or store/ — simulated latency goes "
        "through PerfCounters and pay_latency",
        applies=lambda context: _in_src(context) and context.subpackage in ("core", "store"),
        check=_banned(
            "time",
            lambda name: name in WALL_CLOCK_ATTRS,
            _WALL_CLOCK_ADVICE,
            extra=_date_now,
        ),
    ),
    Rule(
        "RPR004",
        "store-call-outside-transport",
        "direct store method call in cdss/ outside _store_call — every "
        "store call is one measured store phase",
        applies=lambda context: _in_src(context) and context.subpackage == "cdss",
        check=_direct_store_calls,
    ),
    Rule(
        "RPR005",
        "hook-event-dispatch",
        "emit of an unknown hook event (silent no-op) or direct "
        "_handlers access bypassing serialized dispatch",
        applies=_in_src,
        check=_hook_events,
    ),
    Rule(
        "RPR006",
        "memo-mutation-outside-helpers",
        "memo mutated outside its helpers: a write to ._entries outside "
        "core/cache.py",
        applies=lambda context: not context.in_module("core/cache.py"),
        check=_memo_mutations,
    ),
    Rule(
        "RPR007",
        "unordered-set-iteration",
        "iteration over a set expression — set order is arbitrary; wrap "
        "in sorted(...) when the result feeds ordered decision output",
        applies=_in_src,
        check=_set_iterations,
    ),
    Rule(
        "RPR009",
        "message-kind-registry",
        "message kinds passed to Network.send or the DHT request engine "
        "and named in the protocol tables (REPLIES, HANDLERS) must come "
        "from the KINDS registry, and a handler's replies to the client "
        "from its REPLIES row — a typo'd or unlisted kind silently "
        "produces an unanswered request that burns the whole retry budget",
        applies=_in_src,
        check=_unregistered_kinds,
    ),
    Rule(
        "RPR010",
        "blocking-sleep-outside-clock",
        "direct time.sleep outside the LatencyClock implementations — "
        "latency is paid in one place, so the async schedule can defer "
        "it; pay latency through the store's clock (pay_latency)",
        applies=lambda context: not context.in_module("net/clock.py"),
        check=_banned(
            "time",
            lambda name: name == "sleep",
            "outside net/clock.py is a blocking sleep the async schedule "
            "cannot defer past other participants' segments; charge the "
            "latency to PerfCounters and pay it through the store's "
            "LatencyClock",
        ),
    ),
)


def default_rules() -> List[Rule]:
    """Every shipped rule, in code order."""
    return list(RULES)


#: code → rule, for ``--select`` validation and the docs gate.
RULES_BY_CODE: Dict[str, Rule] = {rule.code: rule for rule in RULES}
