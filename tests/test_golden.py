"""Golden digests for the presented-module constructions.

Fixed modules over N, N^2 and the non-simplicial cone, over QQ and GF(5),
go through `tensor`, `kernel`, `image`, `cokernel`, `induce` and
`counit_map`.  The sha256 of the JSON dump of each result must match the
digest recorded from the hand-written constructions these replaced, and
every resulting module must satisfy the module law.
"""

import hashlib
import json

import pytest

from monostack import fields, graded, parabolic
from monostack.fields import QQ, PrimeField
from monostack.graded import direct_sum, graded_algebra, twist
from monostack.jsonio import graded_to_json, matrix_to_json, vec_to_key

# monoid fixture -> (level, twist indices of the source, twist indices of
# the target, induction from, induction to)
CASES = {
    "nat": (2, (0, -1), (1, 1), 2, 6),
    "nat2": (2, (0, -1), (1, 1), 2, 4),
    "nonsimplicial": (2, (0, -1), (1, 0), 1, 3),
}

COEFFS = (1, 2, -1, 3, 1, -2, 2, 1)

DIGESTS = {
    ("nat", "Q"): {
        "tensor": "e51a64ccdb45772c33032f7ebfe2512d50a7db92c6e002526221422eee7b0e43",
        "kernel": "58aed3fca96f69c3e25b3cf82d2875f7c3496526664e8f2cfe3bf6599ec18212",
        "image": "49d8769f3d6a1e043146849b00231bd1ab315fc479d23f7bdaa9b7bd63b91303",
        "cokernel": "58aed3fca96f69c3e25b3cf82d2875f7c3496526664e8f2cfe3bf6599ec18212",
        "induce": "66da9d6351d261135f7159b606c7e272e180080f4cdb228394a74c5b7da696b1",
        "counit_source": "06bba55ec8749dbf5050eca330ab07c22f970e1a58ac8c6bdac6374ae5665369",
        "counit_blocks": "d0ed5f895f37cb7c98969b71faa38317accbbbde1ac40d209d3360f108b9065c",
    },
    ("nat", "Fp:5"): {
        "tensor": "66721ba00120007c38d1dd5eec81c2a9499a4733348945fb5f6c898bc3c9de23",
        "kernel": "09f33e711f3e3e388e7ac98d3405e305acb4de257afb9616731438859b71d015",
        "image": "07edd732c361dbb98f5995271ae677cb2ac8629b37582788879387c79362420f",
        "cokernel": "f1b68e44da1bc687cf7ccd57c7b7a75799afccc5f6d572aa64550266852acd7a",
        "induce": "8ad9b7ee016aee6d264c0c3b9df5c2bdfe85dc27bf1bd643a478e4fe27dbe379",
        "counit_source": "290751de4b3803949ae8b0312981c18a5249c699e23867673df234c87d954d4c",
        "counit_blocks": "0245c8b86faf4907599ce13bfa7da55dc18db387ca7b583833eb7f5c548ddb16",
    },
    ("nat2", "Q"): {
        "tensor": "006cf83fd3fcf3c901d4a8f49d942f72902dbae26d3f635eecc2b743ce3c635f",
        "kernel": "a346959e7d475e9e31f1241d015cf30f9235a84b8cf0c0438161380c1cbe5cb0",
        "image": "283a248e722274fe59f6339af08a433054d1a10bbd859eac47a838d251cbe7e4",
        "cokernel": "7ee0c31ddc38efb967129d05b4d0a9d79070e8419da347fb74f39c094bcab887",
        "induce": "b287a3ce0f68b5eb3b7ba8bd97f2b62a0746d64e7f4432fc52706b720ec8df74",
        "counit_source": "ac742a66987623e61c9039d455754fe15beb3b1a8b116c998b5eaa3f511febbf",
        "counit_blocks": "5af0a114d7e2135739aac6ac347b29254a0324ad4841c1a847e6c22aedd2ed2c",
    },
    ("nat2", "Fp:5"): {
        "tensor": "f01bd6c4ba483c8e81fd8d9960ceca7386745ec15855d83e0d0d406df7ace460",
        "kernel": "3a7bb92ca0aa7735c020b01fe838a00f972fba96e8c1f696becea81de450b35b",
        "image": "63b4d44bc1649020dd58588fbd22ecb0db090c69e9f7846b55483f961800334f",
        "cokernel": "0ebdca187016a3360110e73f52f5a3b00914dbc250fd53fa476882e8739671d7",
        "induce": "5d42397cdb5d21a0c09cf02fc14de63925f8a8f195457587732b1f37a4de8dc7",
        "counit_source": "5e3bf757ca23aa4c0998a78fb9d6de52ea7b9afc2cb0d2e7c261a9536571f96d",
        "counit_blocks": "65ce6ca74b02b2392c1a49e46d9bc656750be50ce1f124a233e065b99157fac1",
    },
    ("nonsimplicial", "Q"): {
        "tensor": "af359792679807c290409a12b8d3891626546c45be3480238b8e8142d61bd27e",
        "kernel": "b70772d1a7130e1f10955d88d376eb8da1349ac3bd1d31c2395cbd8c4005c058",
        "image": "9ca5bd9b520e7a5f5c43e359eafcdb4e29c8c3e60c22bb50f3950abfaaaf0fb5",
        "cokernel": "331b84dc53f02645552fe6c3251ba65997278ca5bfa2cd2fbeb29a01068e65d5",
        "induce": "9dfe3b49b5c3ffcff72af953ee9b0a5d83c1f44964f5430d9a234ab00625927b",
        "counit_source": "8f1280e65b41626fb60ee4e3f146eded454ad63e4a9b935c3860b56f466b794d",
        "counit_blocks": "46a4d5a275843bffa9f0927f06637cc2639f882c829ec3e2319f0c46495c8852",
    },
    ("nonsimplicial", "Fp:5"): {
        "tensor": "1574f968733cdf9642d978c981851402e629df0f4e1cf06c4c583e72ee64199b",
        "kernel": "8362b630ac06ae1ffd807c02fe624067dbfa66fd55f66e3fb3a33286f896e44a",
        "image": "665f04a96c2a86254ae0df15f078b2305a0c17427cefa1f06f32d8fc8c462f73",
        "cokernel": "d927fe478a5c22a9912fa003b0c0fc124f863078419b821bab6c05e196313106",
        "induce": "4ba1932d5e840002fdc97c856f545c273c370bd3d5836db30ca6cd763792d198",
        "counit_source": "4572c4ddb5bdeaf9751a8f3bfaddc713d2430b9ff90d77ea33a1668e4336ff14",
        "counit_blocks": "2c06021c6368ccd807716d10bd67c674c1250b143669128cc1d395d1483b5975",
    },
}


def _digest(payload):
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _blocks_json(field, pmap):
    return [
        [vec_to_key(lab.representative), matrix_to_json(field, pmap.block(lab))]
        for lab in sorted(pmap.source.dims, key=lambda la: la.normal_form)
    ]


def _fixed_map(m, t):
    """A fixed combination of the hom-space basis, m -> t."""
    field = m.algebra.field
    _, maps = parabolic.hom_space(parabolic.from_graded(m), parabolic.from_graded(t))
    blocks = {}
    for lab in m.dims:
        acc = fields.zero_matrix(field, t.dim(lab), m.dim(lab))
        for c, b in zip(COEFFS, maps):
            acc = fields.mat_add(field, acc, fields.mat_scale(field, field.of_int(c), b.block(lab)))
        blocks[lab] = acc
    return graded.GradedMap(m, t, blocks)


def _results(pres, case, field):
    level, src, tgt, ind_from, ind_to = case
    alg = graded_algebra(pres, level, field)
    labs = alg.labels
    m = direct_sum([twist(alg, labs[i % len(labs)]) for i in src])
    t = direct_sum([twist(alg, labs[i % len(labs)]) for i in tgt])
    f = _fixed_map(m, t)
    pf = graded.GradedMap(parabolic.from_graded(m), parabolic.from_graded(t), f.blocks)
    small = parabolic.restrict(parabolic.from_graded(m), ind_from)
    eps = parabolic.counit_map(parabolic.from_graded(t), 1)
    modules = {
        "tensor": graded.tensor(m, t)[0],
        "kernel": graded.kernel(f)[0],
        "image": graded.image(f)[0],
        "cokernel": graded.cokernel(pf)[0],
        "induce": parabolic.induce(small, ind_to),
        "counit_source": eps.source,
    }
    out = {name: graded_to_json(mod) for name, mod in modules.items()}
    out["counit_blocks"] = _blocks_json(field, eps)
    return modules, out


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_constructions_match_golden_digests(name, field, request):
    pres = request.getfixturevalue(name)
    modules, out = _results(pres, CASES[name], field)
    for mod in modules.values():
        mod.validate()
    got = {key: _digest(payload) for key, payload in out.items()}
    assert got == DIGESTS[(name, fields.field_spec(field))]
