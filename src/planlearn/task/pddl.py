"""Parser for the supported PDDL subset: :strips and :typing.

Types are flattened to unary static predicates (one per type, with object
declarations contributing init facts). :action-costs is tolerated but all
costs are forced to 1 and cost machinery ((:functions ...), (increase ...))
is skipped. Everything else (conditional effects, quantifiers, disjunctions,
negative preconditions, axioms) is rejected, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import (
    ArityMismatch,
    ParseError,
    UndeclaredSymbol,
    UnsupportedFeature,
    named_input,
)
from .model import Atom, LiftedTask, Predicate, Schema

_ACCEPTED_REQUIREMENTS = {":strips", ":typing", ":action-costs"}
_REJECTED_HEADS = {
    "or": "disjunctive preconditions",
    "imply": "implication preconditions",
    "forall": "universal quantification",
    "exists": "existential quantification",
    "when": "conditional effects",
    "oneof": "nondeterministic effects",
    "=": "equality atoms",
}


@dataclass
class _Tok:
    text: str
    line: int


def _tokenize(text: str) -> list[_Tok]:
    out: list[_Tok] = []
    line = 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
        elif c in " \t\r":
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            out.append(_Tok(c, line))
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            out.append(_Tok(text[i:j].lower(), line))
            i = j
    return out


def _parse_sexpr(tokens: list[_Tok]):
    """One s-expression as nested lists of _Tok leaves."""

    def parse(pos: int):
        if pos >= len(tokens):
            raise ParseError("unexpected end of input", expected="expression")
        tok = tokens[pos]
        if tok.text == "(":
            items = []
            pos += 1
            while True:
                if pos >= len(tokens):
                    raise ParseError("unbalanced parenthesis", line=tok.line, expected=")")
                if tokens[pos].text == ")":
                    return items, pos + 1
                item, pos = parse(pos)
                items.append(item)
        if tok.text == ")":
            raise ParseError("unexpected ')'", line=tok.line)
        return tok, pos + 1

    expr, end = parse(0)
    while end < len(tokens):
        # Tolerate trailing whitespace-only garbage but not extra forms.
        raise ParseError("trailing input after top-level form", line=tokens[end].line)
    return expr


def _head(expr) -> str:
    if not isinstance(expr, list) or not expr or not isinstance(expr[0], _Tok):
        return ""
    return expr[0].text


def _line(expr) -> int | None:
    if isinstance(expr, _Tok):
        return expr.line
    if expr and isinstance(expr[0], _Tok):
        return expr[0].line
    return None


def _parse_typed_list(items) -> list[tuple[str, str]]:
    """PDDL typed list -> [(name, type)]; untyped entries get type 'object'."""
    if not isinstance(items, list):
        raise ParseError("not a typed list", line=_line(items), expected="( name ... )")
    out: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        tok = items[i]
        if not isinstance(tok, _Tok):
            raise ParseError("nested list inside typed list", line=_line(tok))
        if tok.text == "-":
            if i + 1 >= len(items) or not isinstance(items[i + 1], _Tok):
                raise ParseError("dangling '-' in typed list", line=tok.line, expected="type name")
            typ = items[i + 1].text
            out.extend((name, typ) for name in pending)
            pending = []
            i += 2
        else:
            pending.append(tok.text)
            i += 1
    out.extend((name, "object") for name in pending)
    return out


@dataclass
class _Domain:
    name: str
    types: dict[str, str]                   # type -> parent
    predicates: dict[str, int]              # name -> arity
    type_predicates: set[str]
    constants: list[tuple[str, str]]
    actions: list[dict]


def _type_closure(types: dict[str, str], t: str) -> list[str]:
    chain = []
    while t != "object":
        chain.append(t)
        t = types.get(t, "object")
    return chain


def _parse_atom_expr(expr, line_hint=None):
    if isinstance(expr, _Tok):
        raise ParseError("expected atom", line=expr.line, expected="( predicate ... )")
    if not expr:
        raise ParseError("empty atom", line=line_hint)
    head = expr[0]
    if not isinstance(head, _Tok):
        raise ParseError("atom head must be a symbol", line=_line(expr))
    args = []
    for item in expr[1:]:
        if not isinstance(item, _Tok):
            raise ParseError(f"nested expression inside atom ({head.text} ...)", line=head.line)
        args.append(item.text)
    return head.text, tuple(args), head.line


def _flatten_condition(expr, negatable: bool, context: str):
    """Flatten (and ...) into (positive-atoms, negative-atoms)."""
    pos, neg = [], []

    def visit(e, negated=False):
        if isinstance(e, list) and not e:
            return  # empty conjunction
        head = _head(e)
        if head in _REJECTED_HEADS:
            raise UnsupportedFeature(f"{_REJECTED_HEADS[head]} in {context}")
        if head == "and":
            if negated:
                raise UnsupportedFeature(f"negated conjunction in {context}")
            for sub in e[1:]:
                visit(sub)
            return
        if head == "not":
            if len(e) != 2:
                raise ParseError("(not ...) takes one argument", line=_line(e))
            if not negatable:
                raise UnsupportedFeature(f"negative condition in {context}")
            visit(e[1], negated=True)
            return
        if head == "increase":
            # :action-costs plumbing; costs are forced to 1.
            return
        name, args, line = _parse_atom_expr(e, _line(e))
        (neg if negated else pos).append((name, args, line))

    visit(expr)
    return pos, neg


class _TaskBuilder:
    def __init__(self, domain: _Domain):
        self.domain = domain

    def resolve_atom(self, name, args, line, scope: set[str], where: str) -> Atom:
        arity = self.domain.predicates.get(name)
        if arity is None:
            raise UndeclaredSymbol(f"{where}: undeclared predicate {name} (line {line})")
        if len(args) != arity:
            raise ArityMismatch(
                f"{where}: predicate {name} has arity {arity}, got {len(args)} (line {line})")
        for term in args:
            if term.startswith("?"):
                if term not in scope:
                    raise UndeclaredSymbol(f"{where}: unbound variable {term} (line {line})")
            elif term not in scope:
                raise UndeclaredSymbol(f"{where}: undeclared object {term} (line {line})")
        return Atom(name, args)


def _parse_domain(text: str) -> _Domain:
    expr = _parse_sexpr(_tokenize(text))
    if _head(expr) != "define" or len(expr) < 2 or _head(expr[1]) != "domain":
        raise ParseError("not a PDDL domain", line=_line(expr), expected="(define (domain ...) ...)")
    if len(expr[1]) > 1 and not isinstance(expr[1][1], _Tok):
        raise ParseError("domain name must be a symbol", line=_line(expr[1]))
    name = expr[1][1].text if len(expr[1]) > 1 else "unnamed"
    dom = _Domain(name, {}, {}, set(), [], [])
    for section in expr[2:]:
        head = _head(section)
        if head == ":requirements":
            for req in section[1:]:
                if not isinstance(req, _Tok):
                    raise ParseError("requirement must be a symbol", line=_line(req))
                if req.text not in _ACCEPTED_REQUIREMENTS:
                    raise UnsupportedFeature(f"requirement {req.text}")
        elif head == ":types":
            for typ, parent in _parse_typed_list(section[1:]):
                dom.types[typ] = parent
        elif head == ":constants":
            dom.constants.extend(_parse_typed_list(section[1:]))
        elif head == ":predicates":
            for pred in section[1:]:
                pname = _head(pred)
                if not pname:
                    raise ParseError("malformed predicate declaration", line=_line(section))
                dom.predicates[pname] = len(_parse_typed_list(pred[1:]))
        elif head == ":functions":
            continue  # cost machinery, ignored
        elif head == ":action":
            dom.actions.append(_parse_action(section))
        elif head in (":derived", ":axiom"):
            raise UnsupportedFeature("derived predicates / axioms")
        elif head == ":durative-action":
            raise UnsupportedFeature("durative actions")
        else:
            raise UnsupportedFeature(f"domain section {head or '<non-list>'}")
    # Types become unary static predicates; names must not collide.
    for typ in list(dom.types) + ["object"]:
        if typ in dom.predicates:
            raise UnsupportedFeature(f"type {typ} collides with a predicate name")
    for typ in dom.types:
        dom.predicates[typ] = 1
        dom.type_predicates.add(typ)
    return dom


def _parse_action(section) -> dict:
    it = iter(section[1:])
    name_tok = next(it, None)
    if not isinstance(name_tok, _Tok):
        raise ParseError("missing action name", line=_line(section))
    action = {"name": name_tok.text, "params": [], "pre": None, "eff": None,
              "line": name_tok.line}
    pairs = list(it)
    i = 0
    while i < len(pairs):
        key = pairs[i]
        if not isinstance(key, _Tok) or not key.text.startswith(":"):
            raise ParseError("expected :keyword in action body", line=_line(key))
        if i + 1 >= len(pairs):
            raise ParseError(f"missing value for {key.text}", line=key.line)
        value = pairs[i + 1]
        if key.text == ":parameters":
            action["params"] = _parse_typed_list(value)
        elif key.text == ":precondition":
            action["pre"] = value
        elif key.text == ":effect":
            action["eff"] = value
        else:
            raise UnsupportedFeature(f"action field {key.text}")
        i += 2
    return action


def parse_pddl(domain_text: str, problem_text: str,
               names: tuple[str, str] = ("domain", "problem")) -> LiftedTask:
    """Parse a domain/problem pair into a LiftedTask.

    Total over the supported subset; rejects anything outside it with
    UnsupportedFeature, and ill-formed atoms with ArityMismatch or
    UndeclaredSymbol. Each error message starts with the name of the input
    at fault: names[0] for the domain and its action schemas, names[1] for
    the problem.
    """
    domain_name, problem_name = names
    dom = named_input(domain_name, _parse_domain, domain_text)
    object_names, init_atoms, goal_atoms = named_input(problem_name, _parse_problem,
                                                       dom, problem_text)
    schemas = named_input(domain_name, _build_schemas, dom, set(object_names))
    predicates = tuple(sorted(
        (Predicate(n, a) for n, a in dom.predicates.items()), key=lambda p: p.name))
    return LiftedTask(predicates, object_names, schemas, init_atoms, goal_atoms)


def _parse_problem(dom: _Domain, problem_text: str):
    """(object names, init atoms, goal atoms) of a problem of the domain."""
    expr = _parse_sexpr(_tokenize(problem_text))
    if _head(expr) != "define" or len(expr) < 2 or _head(expr[1]) != "problem":
        raise ParseError("not a PDDL problem", line=_line(expr),
                         expected="(define (problem ...) ...)")
    objects = list(dom.constants)
    init_exprs = []
    goal_expr = None
    for section in expr[2:]:
        head = _head(section)
        if head == ":domain":
            continue
        if head == ":objects":
            objects.extend(_parse_typed_list(section[1:]))
        elif head == ":init":
            init_exprs = section[1:]
        elif head == ":goal":
            if len(section) != 2:
                raise ParseError("(:goal ...) takes one formula", line=_line(section))
            goal_expr = section[1]
        elif head == ":metric":
            continue  # cost machinery, ignored
        else:
            raise UnsupportedFeature(f"problem section {head or '<non-list>'}")
    if goal_expr is None:
        raise ParseError("problem has no goal")

    for obj, typ in objects:
        if typ != "object" and typ not in dom.types:
            raise UndeclaredSymbol(f"object {obj} has undeclared type {typ}")

    object_names = tuple(dict.fromkeys(obj for obj, _ in objects))
    builder = _TaskBuilder(dom)
    obj_scope = set(object_names)

    init_atoms: set[Atom] = set()
    for e in init_exprs:
        if _head(e) == "=":
            continue  # (= (total-cost) 0) and friends
        name, args, line = _parse_atom_expr(e, None)
        init_atoms.add(builder.resolve_atom(name, args, line, obj_scope, "init"))
    # Type membership facts, including ancestors.
    for obj, typ in objects:
        for t in _type_closure(dom.types, typ):
            init_atoms.add(Atom(t, (obj,)))

    pos, _ = _flatten_condition(goal_expr, negatable=False, context="goal")
    goal_atoms = frozenset(
        builder.resolve_atom(n, a, line, obj_scope, "goal") for n, a, line in pos)
    return object_names, frozenset(init_atoms), goal_atoms


def _build_schemas(dom: _Domain, obj_scope: set[str]) -> tuple[Schema, ...]:
    """The domain's action schemas over the problem's objects and constants."""
    builder = _TaskBuilder(dom)
    schemas = []
    for act in dom.actions:
        params = tuple(p for p, _ in act["params"])
        if len(set(params)) != len(params):
            raise ParseError(f"action {act['name']}: duplicate parameter", line=act["line"])
        scope = obj_scope | set(params)
        where = f"action {act['name']}"
        pre_atoms: set[Atom] = set()
        if act["pre"] is not None:
            pos, _ = _flatten_condition(act["pre"], negatable=False, context=where + " precondition")
            pre_atoms = {builder.resolve_atom(n, a, line, scope, where) for n, a, line in pos}
        # Typed parameters contribute static unary preconditions.
        for pname, typ in act["params"]:
            for t in _type_closure(dom.types, typ):
                pre_atoms.add(Atom(t, (pname,)))
        add_atoms: set[Atom] = set()
        del_atoms: set[Atom] = set()
        if act["eff"] is not None:
            pos, neg = _flatten_condition(act["eff"], negatable=True, context=where + " effect")
            add_atoms = {builder.resolve_atom(n, a, line, scope, where) for n, a, line in pos}
            del_atoms = {builder.resolve_atom(n, a, line, scope, where) for n, a, line in neg}
        schemas.append(Schema(act["name"], params, frozenset(pre_atoms),
                              frozenset(add_atoms), frozenset(del_atoms), cost=1))

    return tuple(schemas)
