"""Organizations: roles, a directed communication relation, and a global task net."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .cpn import InputArc, Net, type_check_net, typed_record
from .errors import ValidationReport, Violation, report_of


@typed_record
class Role(NamedTuple):
    id: str
    description: str = ""


@typed_record
class CommLink(NamedTuple):
    source: str
    target: str


@dataclass
class Organization:
    """The pair of structure (roles + links) and a role-annotated global task net.

    The objective stays descriptive text; validation checks the mechanical
    side only: the net is well formed, every transition's role is declared,
    and the links cover the communication the net actually induces.
    """

    id: str
    objective: str
    roles: dict[str, Role]
    links: frozenset[CommLink]
    global_task: Net

    def __init__(self, id, objective, roles, links, global_task):
        self.id = id
        self.objective = objective
        self.roles = {r.id: r for r in roles} if not isinstance(roles, dict) else dict(roles)
        self.links = frozenset(links)
        self.global_task = global_task

    def __eq__(self, other):
        if not isinstance(other, Organization):
            return NotImplemented
        return (
            self.id == other.id
            and self.objective == other.objective
            and self.roles == other.roles
            and self.links == other.links
            and self.global_task == other.global_task
        )


def place_role_adjacency(net: Net) -> dict[str, tuple[set, set]]:
    """Per place: (roles that write it, roles that read it). Shared: callers must not mutate it.

    A Net is immutable, so the table is built on first use and kept on the
    net, the way `cpn.type_check_net` keeps its report: `validate_organization`
    builds it and `decompose` reads each place's writers and readers from it.
    """
    # getattr, not `net.__dict__`, for the reason `cpn.type_check_net` gives
    adjacency = getattr(net, "_role_adjacency", None)
    if adjacency is None:
        adjacency = {pid: (set(), set()) for pid in net.places}
        transitions = net.transitions
        for arc in net.arcs:
            t = transitions.get(arc.transition)
            ends = adjacency.get(arc.place)
            if t is not None and ends is not None:
                ends[type(arc) is InputArc].add(t.role)
        net._role_adjacency = adjacency
    return adjacency


def communication_structure(org: Organization) -> tuple[CommLink, ...]:
    """Links induced by the global task: writer role -> reader role over a shared place."""
    links = set()
    for writers, readers in place_role_adjacency(org.global_task).values():
        for w in writers:
            for r in readers:
                if w != r:
                    links.add(CommLink(w, r))
    # a link sorts as its (source, target) tuple
    return tuple(sorted(links))


def validate_organization(org: Organization) -> ValidationReport:
    out: list[Violation] = []
    net_report = type_check_net(org.global_task)
    out.extend(net_report.entries)

    for tid in sorted(org.global_task.transitions):
        t = org.global_task.transitions[tid]
        if t.role and t.role not in org.roles:
            out.append(Violation("role", tid, f"unknown role {t.role}"))
        if t.event is not None:
            out.append(Violation("event", tid, "global task transitions may not carry events"))

    for link in sorted(org.links):
        if link.source == link.target:
            out.append(Violation("comm", link.source, "communication link from a role to itself"))
        for end in (link.source, link.target):
            if end not in org.roles:
                out.append(Violation("comm", end, f"link references undeclared role {end}"))

    induced = communication_structure(org)
    for link in induced:
        if link not in org.links:
            out.append(
                Violation(
                    "comm",
                    org.id,
                    f"undeclared communication {link.source}->{link.target}",
                )
            )
    return report_of(out)
