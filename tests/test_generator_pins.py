"""The random instance generator is pinned byte for byte.

Each entry is ``(seed, num_nodes, topology, keyword arguments)`` and the
sha256 of ``network.dumps`` of the instance that ``generate_random`` drew
for it when the graph generators came from networkx 3.6.1
(``gnp_random_graph``, ``grid_2d_graph``, ``from_prufer_sequence``).  The
table covers every topology at several sizes and seeds, the Erdos-Renyi
probabilities 0.05, 0.2, 0.4 and 1, explicit grid shapes, and the three
benchmark networks (``bench/run.py``, network seed 1).  A change to any
generator shows up here as a changed instance, not as a drifted result
further down.
"""

import hashlib

import pytest

from gabp import network

PINNED = [
    ((0, 1, 'ring', {}), '16ff08b62eabbf86bd04b6691d671c615fe936eb463dd1d5d33d523a1526709a'),
    ((1, 1, 'ring', {}), '488a9880d88723e0426bbc4283205d56c99b8d4a766e81f599a220b29bcee4f2'),
    ((0, 2, 'ring', {}), 'd10ff5fd8c0768484f8b77835b53369f8b55ab21271e2edb9f28bef6db3cb5d0'),
    ((1, 2, 'ring', {}), '39c3962a03dffad6ffc57089df5f8f88fac4f59019ef4e997e34c916d1be1479'),
    ((0, 3, 'ring', {}), 'aaf10344f8f8b40b32177a308a9c375da8cce02c4fd926a0feb6727248a742fc'),
    ((1, 3, 'ring', {}), '1929012826bcd5098a5ea3fcf6cd5d8514234b9d96da8c158722dcf086897c69'),
    ((0, 5, 'ring', {}), 'dd06d2be9ab8fe7c2acef8a13ed296c8ab121eafed808439cf0776abb1deade6'),
    ((1, 5, 'ring', {}), 'c06271cb967b46570c3bcaa11ff8cca54093e8d8a761d3c67a57a59bd4c50ba2'),
    ((0, 8, 'ring', {}), 'a0413daad9ec7171741eb6cf5e31c1ce4c43f15908811d78d1441be9f16fa0b2'),
    ((1, 8, 'ring', {}), '88f9db67ec98466a88a33c97d3826d47327636273733f0dc67cae16461adf267'),
    ((0, 12, 'ring', {}), '06fc0fd18824e7a305485ee1d04bcc67ac9ecb35fc7755e62942f012269c29b3'),
    ((1, 12, 'ring', {}), '0203cfbdc4482891ba980b8064ca361cd59eddb6abe7f29d102fcafa4792b4be'),
    ((0, 1, 'star', {}), '16ff08b62eabbf86bd04b6691d671c615fe936eb463dd1d5d33d523a1526709a'),
    ((1, 1, 'star', {}), '488a9880d88723e0426bbc4283205d56c99b8d4a766e81f599a220b29bcee4f2'),
    ((0, 2, 'star', {}), 'd10ff5fd8c0768484f8b77835b53369f8b55ab21271e2edb9f28bef6db3cb5d0'),
    ((1, 2, 'star', {}), '39c3962a03dffad6ffc57089df5f8f88fac4f59019ef4e997e34c916d1be1479'),
    ((0, 3, 'star', {}), '7c467a4a753ff68282f3e827b024eb056699c5c5ae400fbc75f0d49c3d8c6e68'),
    ((1, 3, 'star', {}), '7b98851ef0e849e4ea148e45971af6d092b2d0be292f0c943bea0cda58fb9013'),
    ((0, 5, 'star', {}), 'ccc73aa60647676087f176c3ee0f5772febbc3af44e6f7651880d70a200dd4bb'),
    ((1, 5, 'star', {}), 'f5bbcfb89421f17c4b7341561a58af020a1494ac5b823a21a3ce7ad634611752'),
    ((0, 8, 'star', {}), '85475e10b1bbb3909c6dbc79026f0414b3364c2f21b1a756a18aa473d90177e9'),
    ((1, 8, 'star', {}), '96c2c4d81e30ac91d924d7d3609ec89037e658f44dc0066aff039393a77f6c65'),
    ((0, 12, 'star', {}), '18294411534f43d05e1204d90c651230b070290a16e655a918a89530977c6a86'),
    ((1, 12, 'star', {}), '89fd5760fdfd2c8025d18c453da54222dd4bf3397bfc7cb67c09a9c8bfbd3830'),
    ((0, 1, 'complete', {}), '16ff08b62eabbf86bd04b6691d671c615fe936eb463dd1d5d33d523a1526709a'),
    ((1, 1, 'complete', {}), '488a9880d88723e0426bbc4283205d56c99b8d4a766e81f599a220b29bcee4f2'),
    ((0, 2, 'complete', {}), 'd10ff5fd8c0768484f8b77835b53369f8b55ab21271e2edb9f28bef6db3cb5d0'),
    ((1, 2, 'complete', {}), '39c3962a03dffad6ffc57089df5f8f88fac4f59019ef4e997e34c916d1be1479'),
    ((0, 3, 'complete', {}), 'aaf10344f8f8b40b32177a308a9c375da8cce02c4fd926a0feb6727248a742fc'),
    ((1, 3, 'complete', {}), '1929012826bcd5098a5ea3fcf6cd5d8514234b9d96da8c158722dcf086897c69'),
    ((0, 5, 'complete', {}), '0072012bed70fca7d83561386d5174c872243ce30ed27a5797b686f369402e3a'),
    ((1, 5, 'complete', {}), '57cd3f340eee6bd18432157f113869d7646c7ef96f3152c78112978ae2d23d24'),
    ((0, 8, 'complete', {}), '0312d7039e3af19b3aa11544fbcc76bbecedcf26dfe1b6951ee85b1871dd1187'),
    ((1, 8, 'complete', {}), '5f92f54e3ad8c23b4c78a16efc37a7037d1f5ada94c7e975e2259d89ec2b4af6'),
    ((0, 12, 'complete', {}), '85318dd26aac962c7f9a10a7be68cdc36472bbc689c57f0ddd8da79aa543ab7e'),
    ((1, 12, 'complete', {}), 'ffe24e4c78bcaf087abd9bd99aa7e0172a913c2fa2936a5f0e4760f325b84098'),
    ((0, 1, 'grid', {}), '16ff08b62eabbf86bd04b6691d671c615fe936eb463dd1d5d33d523a1526709a'),
    ((1, 1, 'grid', {}), '488a9880d88723e0426bbc4283205d56c99b8d4a766e81f599a220b29bcee4f2'),
    ((0, 2, 'grid', {}), 'd10ff5fd8c0768484f8b77835b53369f8b55ab21271e2edb9f28bef6db3cb5d0'),
    ((1, 2, 'grid', {}), '39c3962a03dffad6ffc57089df5f8f88fac4f59019ef4e997e34c916d1be1479'),
    ((0, 3, 'grid', {}), '25c58ce7fe018e1af3c91c44f8c7752010e57b57ddce62ed025ab03ff6919ef9'),
    ((1, 3, 'grid', {}), '46bc808f21531e36c0182779bbacb93fcb208aaaa2d1bcdd8bc1b758e79a91aa'),
    ((0, 5, 'grid', {}), 'c2ccf8cff148ec9f59efc4657ad91ef6de2326f8ab185f477648a5888b7b8ce2'),
    ((1, 5, 'grid', {}), '5ac6184916866aa17b2fbdf4d1adb58f55aedf4f44c6e426129fc702152fdf47'),
    ((0, 8, 'grid', {}), 'c381b4240dc5c8be40e24e662ce4ee514a6e7b31130c755536254dcc7f3b2bbe'),
    ((1, 8, 'grid', {}), '6d9b1b3757ba10ceb2593365ea5c1c12a3e70b631b3095abb05c42b2eaa23b26'),
    ((0, 12, 'grid', {}), '5cc99554ab00313c32a002dae29e2835b1adba24b506662c900de60f31e4b5bf'),
    ((1, 12, 'grid', {}), '60bfb769eacb6b96060a62bdd897b48970aabfc89df4a3610fd1b99fc5cbd050'),
    ((0, 1, 'tree', {}), '16ff08b62eabbf86bd04b6691d671c615fe936eb463dd1d5d33d523a1526709a'),
    ((1, 1, 'tree', {}), '488a9880d88723e0426bbc4283205d56c99b8d4a766e81f599a220b29bcee4f2'),
    ((0, 2, 'tree', {}), 'f84e356042e3b849d56ae1afe554536b7e3e995f854b047349950103992e6420'),
    ((1, 2, 'tree', {}), 'fe6ebf88f789c2b306e2915665b601af8167ec9c3c3fd9285133937b559ca671'),
    ((0, 3, 'tree', {}), '999cc525a07badc9b5e8b479a0bbe2095c30d66c3123b3bdb84ccfb0b1aa1d13'),
    ((1, 3, 'tree', {}), 'b30af035ef5532deb183f3b6c78599a9539dfffd1aafa66483c029d4225fae54'),
    ((0, 5, 'tree', {}), '97c3b11d077bf2d99a89884aa19e6feba74ed1e8c68c11e99d2ca26de47db719'),
    ((1, 5, 'tree', {}), '9fecb6694dff2d4edf8b99c0399000ca472dc82006082489d32cb66b4a69a022'),
    ((0, 8, 'tree', {}), 'b2cdb08bceee23147ebbefa7a59e86d62f8f753c81354bb9ddae3a63868177ed'),
    ((1, 8, 'tree', {}), 'd90567bfbc889f420a554c67dfc5ad6182cc79f303e4734ac1260d99550e4159'),
    ((0, 12, 'tree', {}), '09f157725d4d2484cb182e2a90abfa37ee66707e731ac39d681f47f5030a6bad'),
    ((1, 12, 'tree', {}), '311087ab1b3efdb3cc5f9e1f562abc70ff86ae97ac3d6c0b4acc20450b5d98c2'),
    ((0, 1, 'er', {'er_prob': 0.05}), '16ff08b62eabbf86bd04b6691d671c615fe936eb463dd1d5d33d523a1526709a'),
    ((1, 1, 'er', {'er_prob': 0.05}), '488a9880d88723e0426bbc4283205d56c99b8d4a766e81f599a220b29bcee4f2'),
    ((0, 2, 'er', {'er_prob': 0.05}), 'a9d3f0b67d42a64f3f8a440814592242d944fdca498994482b95e50b84bf7e01'),
    ((1, 2, 'er', {'er_prob': 0.05}), '5c3bc46bee9c6b384f5ce88384c5b63c700bc010a23c2fd38759290e77c14023'),
    ((0, 4, 'er', {'er_prob': 0.05}), 'eb0a8176b921404ed2a0c10bcb3fb99f652f85e02614d95abcbf4b332a4c957a'),
    ((1, 4, 'er', {'er_prob': 0.05}), '14266ac3deb8a93faa7ccab71d8df39b1d788e1933c6fcd5966af73bd41f70ee'),
    ((0, 1, 'er', {'er_prob': 0.2}), '16ff08b62eabbf86bd04b6691d671c615fe936eb463dd1d5d33d523a1526709a'),
    ((1, 1, 'er', {'er_prob': 0.2}), '488a9880d88723e0426bbc4283205d56c99b8d4a766e81f599a220b29bcee4f2'),
    ((0, 2, 'er', {'er_prob': 0.2}), '57faf4d00be402179fda658902392cabb34525a00f7e4bd768088da791b0a4ec'),
    ((1, 2, 'er', {'er_prob': 0.2}), '5c3bc46bee9c6b384f5ce88384c5b63c700bc010a23c2fd38759290e77c14023'),
    ((0, 4, 'er', {'er_prob': 0.2}), '2486e4ed315662e5301084506520bb741c1834f0fa2b77ff5ec4aa474fb5cbe5'),
    ((1, 4, 'er', {'er_prob': 0.2}), 'b66255b77ca0aec460eddd70c804fc37f92d734ba7289ef1d0a6f26cf6ba4dd3'),
    ((0, 7, 'er', {'er_prob': 0.2}), '990908f31f7cf90c2209faab64587dbb5e2aaa31526a90bc306dc7769e054742'),
    ((1, 7, 'er', {'er_prob': 0.2}), '8d558239150f0be565fad2a2b643c1dd4a78b1ddf81faf1ab5746e76dd108b2f'),
    ((0, 10, 'er', {'er_prob': 0.2}), '5c0c1ee6fcf2254d8411ecd9b25ee8488426cde84079a22b6e42ceeebe3044f1'),
    ((1, 10, 'er', {'er_prob': 0.2}), '46a723ae25c0eb21c4b7d07eba84367a5a030e40329836b0add77b5f3f028ad3'),
    ((0, 1, 'er', {'er_prob': 0.4}), '16ff08b62eabbf86bd04b6691d671c615fe936eb463dd1d5d33d523a1526709a'),
    ((1, 1, 'er', {'er_prob': 0.4}), '488a9880d88723e0426bbc4283205d56c99b8d4a766e81f599a220b29bcee4f2'),
    ((0, 2, 'er', {'er_prob': 0.4}), 'e4bc2ee1d1e159aa16aeb01b99ebfade76d05d30ae5fb63dd237f02d99d3c3d0'),
    ((1, 2, 'er', {'er_prob': 0.4}), '5c3bc46bee9c6b384f5ce88384c5b63c700bc010a23c2fd38759290e77c14023'),
    ((0, 4, 'er', {'er_prob': 0.4}), '57540c96efc77b62abefdb71589a4e30c2b76c1c4da8f57921ee1d9e8dada03a'),
    ((1, 4, 'er', {'er_prob': 0.4}), 'b66255b77ca0aec460eddd70c804fc37f92d734ba7289ef1d0a6f26cf6ba4dd3'),
    ((0, 7, 'er', {'er_prob': 0.4}), 'c603046f74bae9e447cbc378997c8ea9b48469c3b4723ed1a3d1597bd20bb4c6'),
    ((1, 7, 'er', {'er_prob': 0.4}), '5e40f58b74a6eeee18cae856c0208b6f7f40497f579ae1259c27cc2f98fce88b'),
    ((0, 10, 'er', {'er_prob': 0.4}), 'de6e0f8396ea330f7f0e90bbc064fc48b29b5e2c8a7074d83266ac0f38c5bfba'),
    ((1, 10, 'er', {'er_prob': 0.4}), '52c6d3e1fc087d86dff84db59fa3dea19853b7c7ec895b28901d80965538f817'),
    ((0, 1, 'er', {'er_prob': 1.0}), '16ff08b62eabbf86bd04b6691d671c615fe936eb463dd1d5d33d523a1526709a'),
    ((1, 1, 'er', {'er_prob': 1.0}), '488a9880d88723e0426bbc4283205d56c99b8d4a766e81f599a220b29bcee4f2'),
    ((0, 2, 'er', {'er_prob': 1.0}), 'e4bc2ee1d1e159aa16aeb01b99ebfade76d05d30ae5fb63dd237f02d99d3c3d0'),
    ((1, 2, 'er', {'er_prob': 1.0}), 'feb6dbd8486d1d3a3450d980dfc149503e24d468726b861e0dbd4e276a1d16b0'),
    ((0, 4, 'er', {'er_prob': 1.0}), '04c640ab323c3d7927384c8ca45fd7f56b9cca8c73aab68a26772f48d2361805'),
    ((1, 4, 'er', {'er_prob': 1.0}), 'bde82d2f7398546b302219e7ce2e92ed2d7d9e93f131f203b4054015936b8de8'),
    ((0, 7, 'er', {'er_prob': 1.0}), '49c5db547dad2165476c12a465b4141f9e5e11cdb0ebadedbb958e396fa3308a'),
    ((1, 7, 'er', {'er_prob': 1.0}), '19f6f379b1ae7e0bf5390b1a780b4991d89d74b8c26f688546d3a63bad6e3354'),
    ((0, 10, 'er', {'er_prob': 1.0}), 'f4f368bdf3271849cd15280992f525a5997803285f08f4602a28799a2fa6dca4'),
    ((1, 10, 'er', {'er_prob': 1.0}), '7881efd0fce7f9cadb92286793b8df202bbe0da26ef59036b8aab90b6fe22435'),
    ((3, 12, 'grid', {'grid_shape': (3, 4)}), '3200287d6feea99bfff910e4dcf1bb6a00f7494ada8638ae83295ba4b76ee622'),
    ((4, 6, 'grid', {'grid_shape': (6, 1)}), '90e30fc34b551a119d29109bc8e4f8e0345a69f0527ed10847b3a71a61088696'),
    ((5, 9, 'tree', {'dim_range': (2, 2)}), '0309c073d3da4910f53be6ad79594de69053d1dcf7e7bdfb725a51eaaa594ea5'),
    ((6, 6, 'er', {'coeff_scale': 0.001}), '97eaa2efe768796151519ea4a3e8506246a1bebb25c17db2bee337bf7e2309d6'),
    ((1, 144, 'grid', {'grid_shape': (12, 12)}), '615db2cacabb20d6ddebc347cb3e28c806a18e12aa123068094206f840b6861f'),
    ((1, 16, 'grid', {'grid_shape': (4, 4)}), 'd20141112fadd36bce8eeab642ac1777b9bbd0601bc4a77197d1581689e0a6cc'),
    ((1, 30, 'er', {'er_prob': 0.2}), '46788af3acdd4eceb67178b1e27c6346a45572a2c4055c7187c55579dace9cbd'),
]

# Draws that never connect: the generator gives up with a located error.
UNCONNECTABLE = [
    (0, 7, 'er', {'er_prob': 0.05}),
    (1, 7, 'er', {'er_prob': 0.05}),
    (0, 10, 'er', {'er_prob': 0.05}),
    (1, 10, 'er', {'er_prob': 0.05}),
]


def _case_id(case):
    seed, m, topology, kw = case
    extra = "".join(f"-{k}={v}" for k, v in kw.items())
    return f"{topology}{m}-s{seed}{extra}"


@pytest.mark.parametrize("case, digest", PINNED, ids=[_case_id(c) for c, _ in PINNED])
def test_generated_instance_is_pinned(case, digest):
    seed, m, topology, kw = case
    net = network.generate_random(seed, m, topology, **kw)
    assert hashlib.sha256(network.dumps(net).encode()).hexdigest() == digest


@pytest.mark.parametrize("case", UNCONNECTABLE, ids=_case_id)
def test_unconnectable_draw_is_a_value_error(case):
    seed, m, topology, kw = case
    with pytest.raises(ValueError, match=rf"no connected draw in 1000 tries \(m={m}, p=0.05\)"):
        network.generate_random(seed, m, topology, **kw)
