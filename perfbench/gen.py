"""Seeded workload generators for the roleflow benchmark.

Each generator turns (size, seed) into `.org`/`.scn` text that
`roleflow run` accepts, plus the expected outcome computed from the
generated inputs alone, never from program output. The same seed gives the
same bytes.

Replay a benchmark run by hand:

    python3 perfbench/gen.py relay-adapt 7 /tmp/relay-adapt

writes the model and scenario there and prints the `roleflow run`
commands that reproduce the run.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path

TOKEN_RANGE = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    org_text: str
    scn_text: str
    steps: int  # scheduler steps of a complete run; the same in every interleaving
    sink: tuple[str, str]  # (agent id, place id) that collects every token
    expected_sink: tuple[int, ...]  # sorted token payloads the sink must end with
    concurrent: bool = False
    checkpoint_at: int | None = None
    adaptations: int = 0

    def cli_commands(self, org_path: str, scn_path: str) -> list[str]:
        """The `roleflow run` invocations that replay this workload."""
        base = f"PYTHONPATH=src python3 -m roleflow.cli run {org_path} {scn_path}"
        if self.concurrent:
            return [f"{base} --concurrent --seed {self.seed} --trace {self.name}.trace"]
        if self.checkpoint_at is not None:
            return [
                f"{base} --checkpoint-at {self.checkpoint_at} --context {self.name}.ctx"
                f" --trace {self.name}.1.trace",
                f"{base} --resume-from {self.name}.ctx --trace {self.name}.2.trace",
            ]
        return [f"{base} --trace {self.name}.trace"]


def _tokens(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(TOKEN_RANGE) for _ in range(n)]


def _init(tokens) -> str:
    return " init { " + ", ".join(str(t) for t in tokens) + " }"


def pipeline(seed: int, tokens: int = 400) -> Workload:
    """Two agents pass `tokens` ints from one place through a channel, adding 1."""
    rng = random.Random(seed)
    values = _tokens(rng, tokens)
    org = "\n".join(
        [
            "org pipeline",
            'objective "increment every token across two roles"',
            'role A "forwards tokens"',
            'role B "increments tokens"',
            "comm A -> B",
            "colorset Tok = int",
            "place in_ : Tok" + _init(values),
            "place mid : Tok",
            "place out_ : Tok",
            "proc pass(n:Tok) -> (o:Tok) { o = n }",
            "proc inc1(n:Tok) -> (o:Tok) { o = inc(n) }",
            "trans tA role=A proc=pass",
            "in in_ : n",
            "out mid : o",
            "trans tB role=B proc=inc1",
            "in mid : n",
            "out out_ : o",
        ]
    )
    steps = 3 * tokens  # fire, deliver, fire per token
    scn = "\n".join(
        ["assign A -> agent1", "assign B -> agent2", "end quiescence", f"budget {2 * steps}"]
    )
    return Workload(
        "pipeline",
        seed,
        org + "\n",
        scn + "\n",
        steps,
        ("agent2", "out_"),
        tuple(sorted(v + 1 for v in values)),
    )


def _agent(i: int) -> str:
    return f"ag{i:03d}"


def _role(i: int) -> str:
    return f"r{i:03d}"


def _relay_org(agents: int, values) -> str:
    """Agent i receives on x_i into y_i (inc), then sends y_i on to x_{i+1} (inc)."""
    lines = [
        "org relay",
        'objective "relay every token along a chain of agents"',
    ]
    lines += [f'role {_role(i)} "relay hop {i}"' for i in range(agents)]
    lines += [f"comm {_role(i)} -> {_role(i + 1)}" for i in range(agents - 1)]
    lines.append("colorset Tok = int")
    lines.append("place x000 : Tok" + _init(values))
    for i in range(agents):
        lines.append(f"place y{i:03d} : Tok")
        lines.append(f"place x{i + 1:03d} : Tok")
    lines.append("proc take(n:Tok) -> (o:Tok) { o = inc(n) }")
    lines.append("proc hand(n:Tok) -> (o:Tok) { o = inc(n) }")
    for i in range(agents):
        lines += [
            f"trans a{i:03d} role={_role(i)} proc=take",
            f"in x{i:03d} : n",
            f"out y{i:03d} : o",
            f"trans b{i:03d} role={_role(i)} proc=hand",
            f"in y{i:03d} : n",
            f"out x{i + 1:03d} : o",
        ]
    return "\n".join(lines) + "\n"


def _relay_steps(agents: int, tokens: int) -> int:
    return tokens * (3 * agents - 1)  # two firings per hop, one delivery per channel


def _relay_head(agents: int, steps: int) -> list[str]:
    lines = [f"assign {_role(i)} -> {_agent(i)}" for i in range(agents)]
    return lines + ["end quiescence", f"budget {2 * steps}", "colorset Tok = int"]


def relay_adapt(seed: int, agents: int = 160, tokens: int = 3, adaptations: int = 40) -> Workload:
    """The relay under plan-preserving procedure replacements and a mid-run checkpoint.

    Each trigger replaces `take` or `hand` on a distinct agent with a freshly
    named procedure that computes the same function, so the expected sink is
    known from the generated tokens alone. Triggers are spread evenly over
    the run; the checkpoint sits at the middle step.
    """
    if adaptations > agents:
        raise ValueError("each adaptation needs a distinct agent")
    rng = random.Random(seed)
    values = _tokens(rng, tokens)
    steps = _relay_steps(agents, tokens)
    targets = rng.sample(range(agents), adaptations)
    lines = _relay_head(agents, steps)
    for j, i in enumerate(targets):
        at = (2 * j + 1) * steps // (2 * adaptations)
        old = rng.choice(("take", "hand"))
        lines.append(
            f"at {at} adapt {{ rpP {_agent(i)} {old} proc {old}_t{j:02d}(n:Tok) -> (o:Tok)"
            " { o = addK(n,1) } }"
        )
    return Workload(
        "relay-adapt",
        seed,
        _relay_org(agents, values),
        "\n".join(lines) + "\n",
        steps,
        (_agent(agents - 1), f"x{agents:03d}"),
        tuple(sorted(v + 2 * agents for v in values)),
        checkpoint_at=steps // 2,
        adaptations=adaptations,
    )


def relay_concurrent(seed: int, agents: int = 160, tokens: int = 4) -> Workload:
    """The relay without adaptation, under the seeded concurrent scheduler."""
    rng = random.Random(seed)
    values = _tokens(rng, tokens)
    steps = _relay_steps(agents, tokens)
    return Workload(
        "relay-concurrent",
        seed,
        _relay_org(agents, values),
        "\n".join(_relay_head(agents, steps)) + "\n",
        steps,
        (_agent(agents - 1), f"x{agents:03d}"),
        tuple(sorted(v + 2 * agents for v in values)),
        concurrent=True,
    )


GENERATORS = {
    "pipeline": pipeline,
    "relay-adapt": relay_adapt,
    "relay-concurrent": relay_concurrent,
}


def generate(name: str, seed: int, **sizes) -> Workload:
    return GENERATORS[name](seed, **sizes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write a benchmark workload as .org/.scn files.")
    parser.add_argument("workload", choices=sorted(GENERATORS))
    parser.add_argument("seed", type=int)
    parser.add_argument("out_dir")
    args = parser.parse_args(argv)
    wl = generate(args.workload, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    org_path, scn_path = out / f"{wl.name}.org", out / f"{wl.name}.scn"
    org_path.write_text(wl.org_text, encoding="utf-8")
    scn_path.write_text(wl.scn_text, encoding="utf-8")
    for cmd in wl.cli_commands(str(org_path), str(scn_path)):
        print(cmd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
