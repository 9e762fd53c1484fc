import pytest

from planlearn.errors import ArityMismatch, ParseError, UndeclaredSymbol, UnsupportedFeature
from planlearn.task import parse_pddl


def test_gripper_fixture_counts(gripper_lifted):
    arities = sorted((p.name, p.arity) for p in gripper_lifted.predicates)
    assert arities == [("at", 2), ("at-robby", 1), ("ball", 1), ("carry", 2),
                       ("free", 1), ("gripper", 1), ("room", 1)]
    assert [s.name for s in gripper_lifted.schemas] == ["move", "pick", "drop"]
    assert len(gripper_lifted.objects) == 5
    assert len(gripper_lifted.goal) == 1


def test_zero_ary_predicate_accepted():
    domain = """
    (define (domain d) (:requirements :strips)
      (:predicates (handempty) (holding ?x))
      (:action grab :parameters (?x)
        :precondition (and (handempty))
        :effect (and (holding ?x) (not (handempty)))))
    """
    problem = "(define (problem p) (:domain d) (:objects a) (:init (handempty)) (:goal (holding a)))"
    task = parse_pddl(domain, problem)
    assert {p.name: p.arity for p in task.predicates}["handempty"] == 0


def test_undeclared_object_rejected(gripper_domain_text):
    problem = """(define (problem p) (:domain gripper)
      (:objects rooma) (:init (room rooma) (at-robby rooma))
      (:goal (at-robby nowhere)))"""
    with pytest.raises(UndeclaredSymbol):
        parse_pddl(gripper_domain_text, problem)


def test_arity_mismatch_rejected(gripper_domain_text):
    problem = """(define (problem p) (:domain gripper)
      (:objects rooma) (:init (room rooma) (at rooma)) (:goal (room rooma)))"""
    with pytest.raises(ArityMismatch):
        parse_pddl(gripper_domain_text, problem)


@pytest.mark.parametrize("construct,needle", [
    ("(:requirements :strips :adl)", ":adl"),
    ("(:requirements :strips :derived-predicates)", ":derived"),
])
def test_unsupported_requirements_rejected(construct, needle):
    domain = f"(define (domain d) {construct} (:predicates (p)))"
    problem = "(define (problem q) (:domain d) (:init (p)) (:goal (p)))"
    with pytest.raises(UnsupportedFeature):
        parse_pddl(domain, problem)


def test_conditional_effect_rejected():
    domain = """(define (domain d) (:requirements :strips)
      (:predicates (p) (q))
      (:action a :parameters () :precondition (p)
        :effect (when (p) (q))))"""
    problem = "(define (problem x) (:domain d) (:init (p)) (:goal (q)))"
    with pytest.raises(UnsupportedFeature):
        parse_pddl(domain, problem)


def test_negative_precondition_rejected():
    domain = """(define (domain d) (:requirements :strips)
      (:predicates (p) (q))
      (:action a :parameters () :precondition (not (p)) :effect (q)))"""
    problem = "(define (problem x) (:domain d) (:init) (:goal (q)))"
    with pytest.raises(UnsupportedFeature):
        parse_pddl(domain, problem)


def test_syntax_error_reports_line():
    with pytest.raises(ParseError) as err:
        parse_pddl("(define (domain d)\n  (:predicates (p)", "(define (problem q))")
    assert err.value.line is not None


def test_typing_flattens_to_unary_predicates():
    domain = """(define (domain d) (:requirements :strips :typing)
      (:types truck - vehicle vehicle - object)
      (:predicates (at ?v - vehicle ?l))
      (:action go :parameters (?t - truck ?l)
        :precondition (at ?t ?l) :effect (and)))
    """
    problem = """(define (problem p) (:domain d)
      (:objects t1 - truck home)
      (:init (at t1 home)) (:goal (at t1 home)))"""
    task = parse_pddl(domain, problem)
    names = {p.name for p in task.predicates}
    assert {"truck", "vehicle"} <= names
    # object declarations contribute membership facts, including ancestors
    from planlearn.task import Atom
    assert Atom("truck", ("t1",)) in task.init
    assert Atom("vehicle", ("t1",)) in task.init
    go = task.schemas[0]
    assert Atom("truck", ("?t",)) in go.pre
    assert Atom("vehicle", ("?t",)) in go.pre


def test_action_costs_tolerated_and_ignored():
    domain = """(define (domain d) (:requirements :strips :action-costs)
      (:predicates (p) (q))
      (:functions (total-cost))
      (:action a :parameters () :precondition (p)
        :effect (and (q) (increase (total-cost) 5))))"""
    problem = """(define (problem x) (:domain d)
      (:init (p) (= (total-cost) 0)) (:goal (q))
      (:metric minimize (total-cost)))"""
    task = parse_pddl(domain, problem)
    assert task.schemas[0].cost == 1
