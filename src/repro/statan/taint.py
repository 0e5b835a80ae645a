"""PII taint dataflow: intraprocedural core + one-call-deep summaries.

The model, deliberately simple enough to reason about:

* **Sources** are expressions that *are* PII: attribute reads like
  ``persona.email`` (a PII field on a persona-shaped object) and leak
  payload fields like ``origin.surface_form``.  What counts is
  configured by a :class:`TaintConfig`.
* **Propagation** is forward, in statement order, per function body
  (module top-level counts as a body).  Assigning a tainted expression
  taints the target name; reassigning it clean clears it.  String
  building in every common shape (``%``, ``+``, ``.format``,
  f-strings, ``str.join``, containers) propagates taint, as do calls
  with tainted arguments (a conservative over-approximation).
  Branches (``if``/``try``/loops) are analyzed against the same
  environment and their taints merge — a name tainted on *any* path
  stays tainted afterwards.
* **Sanitizers** stop taint: any call whose callee matches the
  configured redaction helpers (``repro.reporting.redact``) returns a
  clean value.
* **Sinks** are where tainted data must not arrive; the caller (the
  PII rules) asks :class:`TaintAnalysis` for sink hits.

This is a linter, not a verifier: it over-taints (any call argument)
and under-taints (aliasing through containers read back later is not
tracked).  Both trade-offs are the conventional ones for a CI gate —
findings must be cheap to confirm.

Interprocedural flow is handled by **function summaries** one level
deep.  :func:`summarize_function` runs the same dataflow over a callee
with each parameter pre-tainted by a ``param:`` marker and records (a)
which parameters reach a sink inside the callee, (b) which parameters
flow to its return value, and (c) whether the return value is tainted
regardless of arguments (the callee reads a source itself).  A
caller-side resolver (built by the PII rule from the project call
graph) maps call expressions to summaries; :class:`TaintAnalysis`
consults it *additively* — a summary can only add taint and sink hits
on top of the conservative intraprocedural verdicts, never remove
them, so upgrading to interprocedural analysis is monotone: every old
finding survives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

#: Source-description prefix marking "this taint came from parameter X"
#: during a summarization run (never appears in real findings).
PARAM_MARKER = "param:"


@dataclass(frozen=True)
class TaintConfig:
    """What counts as a source and what stops taint."""

    #: Attribute names that hold raw PII when read off a PII-shaped base.
    pii_attrs: Tuple[str, ...] = (
        "email", "username", "full_name", "first_name", "last_name",
        "phone", "dob", "gender", "job", "address",
    )
    #: Base-expression substrings marking a persona-shaped object
    #: (matched case-insensitively against the dotted base name).
    pii_bases: Tuple[str, ...] = ("persona",)
    #: Attribute names that hold leaked-token payloads wherever they
    #: appear (TokenOrigin.surface_form is the leaked value itself).
    payload_attrs: Tuple[str, ...] = (
        "surface_form", "leaked_value", "pii_value",
    )
    #: Callee name suffixes that sanitize their arguments.
    sanitizers: Tuple[str, ...] = (
        "redact", "redact_email", "redact_value", "redact_text",
        "redact_spans",
    )


@dataclass(frozen=True)
class SinkHit:
    """One tainted expression arriving at a sink."""

    node: ast.AST          # the sink call / raise statement
    sink: str              # human label, e.g. "print()"
    source: str            # where the taint came from, e.g. "persona.email"


@dataclass(frozen=True)
class FunctionSummary:
    """What one callee does with taint, from its caller's point of view.

    Computed once per function per analyzer run (the PII rule caches
    by qualname) by :func:`summarize_function`; summaries themselves
    are computed *without* a resolver, which is what bounds the
    interprocedural depth at one call level.
    """

    name: str                            # display name, e.g. "fetch_email"
    params: Tuple[str, ...]              # mapping order for call args
    #: param -> sink labels it reaches inside the callee.
    param_sinks: Dict[str, Tuple[str, ...]]
    #: Params whose taint flows into the callee's return value.
    returns_param: Set[str]
    #: Return value tainted regardless of args (callee reads a source).
    returns_source: Optional[str]

    @property
    def interesting(self) -> bool:
        return bool(self.param_sinks or self.returns_param
                    or self.returns_source)


#: Caller-side hook: call expression -> summary of its callee (or None
#: when the call does not confidently resolve to a project function).
Resolver = Callable[[ast.Call], Optional[FunctionSummary]]


@dataclass
class _Env:
    """Mutable taint environment: tainted name -> source description."""

    tainted: Dict[str, str] = field(default_factory=dict)

    def copy(self) -> "_Env":
        return _Env(dict(self.tainted))

    def merge(self, *others: "_Env") -> None:
        for other in others:
            self.tainted.update(other.tainted)


class TaintAnalysis:
    """Run the dataflow over one function body (or the module body)."""

    def __init__(self, config: Optional[TaintConfig] = None) -> None:
        self.config = config or TaintConfig()
        self._resolver: Optional[Resolver] = None
        #: Source descriptions of tainted ``return`` values seen during
        #: the most recent :meth:`sink_hits` run (read by the
        #: summarizer).
        self.return_taints: List[str] = []

    # -- public ----------------------------------------------------------

    def scopes(self, tree: ast.Module,
               ) -> List[Tuple[str, Optional[str], List[ast.stmt]]]:
        """Every analysis scope with its enclosing class:
        ``(scope name, class name or None, body)``.

        The class name is what lets a caller-side resolver follow
        ``self.method(...)`` calls; nested defs inside a method drop it
        (their ``self`` is a closure cell, not a resolvable receiver).
        """
        out: List[Tuple[str, Optional[str], List[ast.stmt]]] = [
            ("<module>", None, list(tree.body))]

        def visit(node: ast.AST, class_name: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    out.append((child.name, class_name, list(child.body)))
                    visit(child, None)
                elif isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                else:
                    visit(child, class_name)

        visit(tree, None)
        return out

    def sink_hits(self, body: List[ast.stmt], sinks: "SinkTable",
                  env: Optional[_Env] = None,
                  resolver: Optional[Resolver] = None) -> List[SinkHit]:
        """All tainted-value-reaches-sink events in one scope.

        ``env`` seeds the taint environment (the summarizer passes
        param markers); ``resolver`` enables one-call-deep
        interprocedural lookups for the duration of this run.
        """
        hits: List[SinkHit] = []
        self._resolver = resolver
        self.return_taints = []
        try:
            self._run_body(body, env.copy() if env is not None else _Env(),
                           sinks, hits, top=True)
        finally:
            self._resolver = None
        return hits

    # -- statement walk --------------------------------------------------

    def _run_body(self, body: List[ast.stmt], env: _Env,
                  sinks: "SinkTable", hits: List[SinkHit],
                  top: bool = False) -> None:
        for stmt in body:
            self._run_stmt(stmt, env, sinks, hits, top=top)

    def _run_stmt(self, stmt: ast.stmt, env: _Env, sinks: "SinkTable",
                  hits: List[SinkHit], top: bool = False) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested scopes are analyzed separately
        if isinstance(stmt, ast.ClassDef):
            if top:
                self._run_body(list(stmt.body), env, sinks, hits)
            return
        if isinstance(stmt, ast.Assign):
            source = self.taint_of(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, source, env)
            self._check_expr(stmt.value, env, sinks, hits)
            return
        if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is not None:
                source = self.taint_of(value, env)
                if isinstance(stmt, ast.AugAssign):
                    # x += tainted leaves x tainted; += clean keeps the
                    # existing verdict.
                    if source is not None:
                        self._assign(stmt.target, source, env)
                else:
                    self._assign(stmt.target, source, env)
                self._check_expr(value, env, sinks, hits)
            return
        if isinstance(stmt, ast.Expr):
            self._check_expr(stmt.value, env, sinks, hits)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                source = self.taint_of(stmt.value, env)
                if source is not None:
                    self.return_taints.append(source)
                self._check_expr(stmt.value, env, sinks, hits)
            return
        if isinstance(stmt, ast.Raise):
            exc = stmt.exc
            if exc is not None:
                source = self.taint_of(exc, env)
                if source is not None and sinks.raise_is_sink:
                    hits.append(SinkHit(node=stmt,
                                        sink="raise",
                                        source=source))
                self._check_expr(exc, env, sinks, hits,
                                 skip_top_call=sinks.raise_is_sink)
            return
        if isinstance(stmt, (ast.If,)):
            self._check_expr(stmt.test, env, sinks, hits)
            self._run_branches(env, sinks, hits,
                               [stmt.body, stmt.orelse])
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            source = self.taint_of(stmt.iter, env)
            self._assign(stmt.target, source, env)
            self._check_expr(stmt.iter, env, sinks, hits)
            self._run_branches(env, sinks, hits,
                               [stmt.body, stmt.orelse])
            return
        if isinstance(stmt, ast.While):
            self._check_expr(stmt.test, env, sinks, hits)
            self._run_branches(env, sinks, hits,
                               [stmt.body, stmt.orelse])
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                source = self.taint_of(item.context_expr, env)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, source, env)
                self._check_expr(item.context_expr, env, sinks, hits)
            self._run_body(list(stmt.body), env, sinks, hits)
            return
        if isinstance(stmt, ast.Try):
            branches = [list(stmt.body)]
            for handler in stmt.handlers:
                branches.append(list(handler.body))
            branches.append(list(stmt.orelse))
            self._run_branches(env, sinks, hits, branches)
            self._run_body(list(stmt.finalbody), env, sinks, hits)
            return
        # Fallback: scan any remaining expressions for sink calls.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._check_expr(child, env, sinks, hits)

    def _run_branches(self, env: _Env, sinks: "SinkTable",
                      hits: List[SinkHit],
                      branch_bodies: List[List[ast.stmt]]) -> None:
        """Run each branch on a copy of ``env``; merge taints (union)."""
        outcomes: List[_Env] = []
        for body in branch_bodies:
            branch_env = env.copy()
            self._run_body(list(body), branch_env, sinks, hits)
            outcomes.append(branch_env)
        env.merge(*outcomes)

    def _assign(self, target: ast.expr, source: Optional[str],
                env: _Env) -> None:
        if isinstance(target, ast.Name):
            if source is None:
                env.tainted.pop(target.id, None)
            else:
                env.tainted[target.id] = source
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, source, env)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, source, env)
        # Attribute/subscript targets: no alias tracking; skip.

    # -- expression taint ------------------------------------------------

    def taint_of(self, node: Optional[ast.expr],
                 env: _Env) -> Optional[str]:
        """Why ``node`` is tainted (a source description), or None."""
        if node is None:
            return None
        config = self.config
        if isinstance(node, ast.Name):
            return env.tainted.get(node.id)
        if isinstance(node, ast.Attribute):
            if node.attr in config.payload_attrs:
                return "leak payload .%s" % node.attr
            if node.attr in config.pii_attrs:
                base = _dotted_text(node.value)
                lowered = base.lower()
                if any(marker in lowered for marker in config.pii_bases):
                    return "%s.%s" % (base, node.attr)
            return self.taint_of(node.value, env)
        if isinstance(node, ast.Call):
            if self._is_sanitizer(node.func):
                return None
            summary = self._summary_for(node)
            if summary is not None:
                found = self._summary_return_taint(node, summary, env)
                if found is not None:
                    return found
            for arg in node.args:
                found = self.taint_of(arg, env)
                if found:
                    return found
            for keyword in node.keywords:
                found = self.taint_of(keyword.value, env)
                if found:
                    return found
            # A call on a tainted receiver (email.upper(), etc.).
            if isinstance(node.func, ast.Attribute):
                return self.taint_of(node.func.value, env)
            return None
        if isinstance(node, ast.BinOp):
            return self.taint_of(node.left, env) \
                or self.taint_of(node.right, env)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                found = self.taint_of(value, env)
                if found:
                    return found
            return None
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    found = self.taint_of(value.value, env)
                    if found:
                        return found
            return None
        if isinstance(node, ast.FormattedValue):
            return self.taint_of(node.value, env)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                found = self.taint_of(element, env)
                if found:
                    return found
            return None
        if isinstance(node, ast.Dict):
            for value in node.values:
                found = self.taint_of(value, env)
                if found:
                    return found
            return None
        if isinstance(node, (ast.Subscript, ast.Starred, ast.Await,
                             ast.UnaryOp)):
            return self.taint_of(getattr(node, "value",
                                         getattr(node, "operand", None)),
                                 env)
        if isinstance(node, ast.IfExp):
            return self.taint_of(node.body, env) \
                or self.taint_of(node.orelse, env)
        if isinstance(node, ast.NamedExpr):
            return self.taint_of(node.value, env)
        return None

    def _is_sanitizer(self, func: ast.expr) -> bool:
        name: Optional[str] = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        return name is not None and name in self.config.sanitizers

    # -- interprocedural (summary consultation) --------------------------

    def _summary_for(self, call: ast.Call) -> Optional[FunctionSummary]:
        if self._resolver is None:
            return None
        summary = self._resolver(call)
        if summary is not None and summary.interesting:
            return summary
        return None

    def _summary_return_taint(self, call: ast.Call,
                              summary: FunctionSummary,
                              env: _Env) -> Optional[str]:
        """Taint of ``call``'s return value according to the summary."""
        if summary.returns_source is not None:
            return "%s (returned by %s())" % (summary.returns_source,
                                              summary.name)
        from .callgraph import map_call_arguments
        for param, arg in map_call_arguments(call, summary.params):
            if param in summary.returns_param:
                found = self.taint_of(arg, env)
                if found is not None:
                    return found
        return None

    # -- sink scanning ---------------------------------------------------

    def _check_expr(self, node: ast.expr, env: _Env, sinks: "SinkTable",
                    hits: List[SinkHit],
                    skip_top_call: bool = False) -> None:
        """Find sink calls anywhere inside ``node`` with tainted args —
        direct sinks first, then calls whose *callee* sinks a parameter
        (via the resolver's one-call-deep summaries)."""
        for call in _walk_calls(node):
            if skip_top_call and call is node:
                continue
            label = sinks.match(call)
            if label is not None:
                for arg in list(call.args) + [kw.value
                                              for kw in call.keywords]:
                    source = self.taint_of(arg, env)
                    if source is not None:
                        hits.append(SinkHit(node=call, sink=label,
                                            source=source))
                        break
                continue
            summary = self._summary_for(call)
            if summary is None or not summary.param_sinks:
                continue
            from .callgraph import map_call_arguments
            for param, arg in map_call_arguments(call, summary.params):
                inner_sinks = summary.param_sinks.get(param)
                if not inner_sinks:
                    continue
                source = self.taint_of(arg, env)
                if source is not None and \
                        not source.startswith(PARAM_MARKER):
                    hits.append(SinkHit(
                        node=call,
                        sink="%s inside %s()" % (inner_sinks[0],
                                                 summary.name),
                        source=source))
                    break


class SinkTable:
    """Which calls count as output sinks.

    * ``print(...)``
    * ``logging.<level>(...)`` and ``<log|logger>.<level>(...)``
    * ``<anything>.write(...)`` / ``.writelines(...)``
    * optionally ``raise`` statements (PII in exception messages
      escapes through tracebacks, logs and user-facing error output).
    """

    _LOG_METHODS = {"debug", "info", "warning", "warn", "error",
                    "exception", "critical", "log"}
    _WRITE_METHODS = {"write", "writelines"}

    def __init__(self, raise_is_sink: bool = True) -> None:
        self.raise_is_sink = raise_is_sink

    def match(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "print":
                return "print()"
            return None
        if isinstance(func, ast.Attribute):
            if func.attr in self._WRITE_METHODS:
                return ".%s()" % func.attr
            if func.attr in self._LOG_METHODS:
                base = _dotted_text(func.value).lower()
                if base == "logging" or "log" in base.rsplit(".", 1)[-1]:
                    return "logging"
            return None
        return None


def _walk_calls(node: ast.expr) -> Iterator[ast.Call]:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def _dotted_text(node: ast.expr) -> str:
    """Best-effort dotted rendering of a Name/Attribute chain."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    elif isinstance(current, ast.Call):
        parts.append(_dotted_text(current.func) + "()")
    else:
        parts.append("<expr>")
    return ".".join(reversed(parts))


# ---------------------------------------------------------------------------
# Function summaries (the interprocedural half).
# ---------------------------------------------------------------------------

def summarize_function(node: "ast.FunctionDef",
                       sinks: "SinkTable",
                       config: Optional[TaintConfig] = None,
                       ) -> FunctionSummary:
    """One-call-deep summary of what ``node`` does with taint.

    Runs the intraprocedural dataflow over the callee's body with every
    parameter pre-tainted by a ``param:`` marker, *without* a resolver
    (which is what bounds the depth — summaries never consult other
    summaries).  Sink hits whose source is a param marker become
    ``param_sinks``; tainted return values split into parameter flows
    and unconditional sources.
    """
    from .callgraph import function_params
    analysis = TaintAnalysis(config)
    params = function_params(node)
    env = _Env({name: PARAM_MARKER + name for name in params})
    hits = analysis.sink_hits(list(node.body), sinks, env=env)

    param_sinks: Dict[str, Tuple[str, ...]] = {}
    for hit in hits:
        if hit.source.startswith(PARAM_MARKER):
            name = hit.source[len(PARAM_MARKER):]
            param_sinks[name] = param_sinks.get(name, ()) + (hit.sink,)

    returns_param: Set[str] = set()
    returns_source: Optional[str] = None
    for source in analysis.return_taints:
        if source.startswith(PARAM_MARKER):
            returns_param.add(source[len(PARAM_MARKER):])
        elif returns_source is None:
            returns_source = source

    return FunctionSummary(name=node.name, params=tuple(params),
                           param_sinks=param_sinks,
                           returns_param=returns_param,
                           returns_source=returns_source)
