"""Tests for the ISCAS89-like circuit reconstruction."""

import dataclasses

import pytest

from repro.bench import CATALOG, generate, load_circuit, spec
from repro.netlist import (
    collect_stats,
    content_hash,
    is_acyclic,
    validate,
)

SMALL = ("s298", "s344", "s382", "s444", "s526", "s953", "s1196")


class TestDeterminism:
    def test_same_name_same_netlist(self):
        a = load_circuit("s298")
        b = load_circuit("s298")
        assert [
            (g.name, g.func, g.fanin) for g in a.gates()
        ] == [(g.name, g.func, g.fanin) for g in b.gates()]

    def test_different_names_differ(self):
        a = load_circuit("s382")
        b = load_circuit("s400")
        assert [g.name for g in a.gates()] != [g.name for g in b.gates()]


class TestStructure:
    @pytest.mark.parametrize("name", SMALL)
    def test_validates(self, name):
        netlist = load_circuit(name)
        validate(netlist)
        assert is_acyclic(netlist)

    @pytest.mark.parametrize("name", SMALL)
    def test_io_counts_exact(self, name):
        s = spec(name)
        stats = collect_stats(load_circuit(name))
        assert stats.n_inputs == s.n_pi
        assert stats.n_outputs >= s.n_po  # repair may add outputs
        assert stats.n_dffs == s.n_ff

    @pytest.mark.parametrize("name", SMALL)
    def test_gate_count_close(self, name):
        s = spec(name)
        stats = collect_stats(load_circuit(name))
        assert abs(stats.n_gates - s.n_gates) <= max(5, 0.05 * s.n_gates)

    @pytest.mark.parametrize("name", SMALL)
    def test_depth_exact(self, name):
        s = spec(name)
        assert collect_stats(load_circuit(name)).logic_depth == s.depth

    @pytest.mark.parametrize("name", SMALL)
    def test_fanout_profile_close(self, name):
        s = spec(name)
        stats = collect_stats(load_circuit(name))
        assert stats.unique_fanout_ratio == pytest.approx(
            s.unique_ratio, abs=0.15
        )
        assert stats.fanout_per_ff == pytest.approx(s.fanout_per_ff, abs=0.2)

    def test_s838_high_fanout_preserved(self):
        stats = collect_stats(load_circuit("s838"))
        assert stats.unique_fanout_ratio > 2.5  # the paper's outlier

    def test_every_pi_used(self):
        n = load_circuit("s641")
        for pi in n.inputs:
            assert n.fanout(pi), f"primary input {pi} drives nothing"


class TestApi:
    def test_s27_is_embedded_real_circuit(self):
        n = generate("s27")
        assert n.gate("G17").func == "NOT"
        assert n.gate("G10").func == "NOR"

    def test_unknown_circuit_rejected(self):
        with pytest.raises(KeyError):
            load_circuit("s99999")

    def test_available_circuits(self):
        from repro.bench import available_circuits

        names = available_circuits()
        assert "s27" in names and "s13207" in names
        assert names == sorted(names)

    def test_generate_accepts_spec_object(self):
        n = generate(CATALOG["s344"])
        assert n.name == "s344"


class TestRenamedSpecs:
    """A renamed catalog spec seeds a new circuit with the same statistics
    (the benchmark pools and the property tests draw circuits this way)."""

    @staticmethod
    def _renamed(base, name):
        return generate(dataclasses.replace(CATALOG[base], name=name))

    def test_full_circuit_absorbs_unused_input(self):
        """Every n-ary gate of s27_89058 is full before PI3 is absorbed;
        an inverter or buffer takes it instead."""
        netlist = self._renamed("s27", "s27_89058")
        validate(netlist)
        assert netlist.fanout("PI3")
        assert all(netlist.fanout(pi) for pi in netlist.inputs)
        assert len(list(netlist.combinational_gates())) \
            == CATALOG["s27"].n_gates

    @pytest.mark.parametrize("base, name, digest", [
        ("s27", "s27_0",
         "aeb4164ad16c86ab5f74d010fd9a9a3ad23d741eef3797b4d0d606a1d7177173"),
        ("s27", "s27_89057",
         "56ad0b15d7ca7f80bff13cd773aba9a9a2a6a4bb8fec5bd211e1f172d223d84a"),
        ("s27", "s27_89059",
         "99ffb180bac44048776027ddfaff2e5868de592bf1d0a3bdeabe2aee737b3ee5"),
        ("s298", "s298_7",
         "cdd63696787c8fa8ef1dbea34c1757c7acaa440571bb67a8edcdc16afd2325e9"),
        ("s382", "s382_11_0",
         "f663ad3ce30d00d90f7583dca34cee428a3f2621342ddb662c4c114a9a72a3ef"),
        ("s838", "s838_3",
         "90edfbfd47f46a2c2496226c9d6d65eab16d8566267838097f85945b46cf738f"),
    ])
    def test_pinned_circuits(self, base, name, digest):
        """Names that always built keep their exact circuits."""
        assert content_hash(self._renamed(base, name)) == digest


class TestStressSpec:
    """Synthetic stress circuits scale s38584 without entering CATALOG."""

    def test_scales_s38584(self):
        from repro.bench import spec, stress_spec

        base = spec("s38584")
        stress = stress_spec(10, depth=48)
        assert stress.name == "stress10x"
        assert stress.n_ff == base.n_ff * 10
        assert stress.n_gates == base.n_gates * 10
        assert stress.depth == 48
        assert (stress.n_pi, stress.n_po) == (base.n_pi, base.n_po)
        assert stress.hub_fraction == base.hub_fraction

    def test_default_depth_grows_with_scale(self):
        from repro.bench import spec, stress_spec

        base = spec("s38584")
        assert stress_spec(1).depth == base.depth
        assert stress_spec(10).depth == 2 * base.depth
        assert stress_spec(3).depth > base.depth

    def test_not_in_catalog(self):
        from repro.bench import CATALOG, stress_spec

        assert stress_spec(2).name not in CATALOG

    def test_rejects_nonpositive_scale(self):
        import pytest

        from repro.bench import stress_spec

        with pytest.raises(ValueError, match="scale"):
            stress_spec(0)

    def test_deterministic_seed(self):
        from repro.bench import stress_spec

        assert stress_spec(4).seed == stress_spec(4).seed
