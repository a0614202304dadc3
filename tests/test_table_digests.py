"""Frozen digests of every enumerated table behind the reported numbers.

Each group table's (elements, labels, gens) and each field's arithmetic
tables hash to the sha256 recorded here, so a change to how a table is
assembled (closure, generator completion, labels, the field modulus) that
moves any element, label, generator or table entry shows up as a digest
mismatch.  The digests are of ``repr`` of plain tuples and lists of ints;
a table's elements are its decoded ``elements`` view.
"""

import hashlib

import pytest

from classprop import gf
from classprop.gf import Field
from classprop.matgroup import build_group


def sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


# (family, n, q) -> sha256 of (elements, labels, gens)
TABLE_DIGESTS = {
    ('GL', 1, 2): "f0cf0847ab33b864bba2666295ac55d68fb9bef9b8709e9bc18d67ea2a8235de",
    ('GL', 1, 3): "ae1c5f9f398eeefc19e78c6aeff7a311fb61d7cd1f63251d915780e8fd7d13db",
    ('GL', 1, 4): "dc6cf4be5d8faf6d816362365179e02dfb5b9ccc9f1bc5bb595d8754ad97ec64",
    ('GL', 1, 5): "27ff0b635454940b26d01dc2c6d96f5debab90fcc4f018b1d98769a0156c4372",
    ('GL', 1, 7): "af274909ede22a3cf157fe398aea31468b742e16d636df55844315394074f7ba",
    ('GL', 1, 8): "61a21b1168bad21d4216168e5a8c7b396034f5161776f1558d1d8f75f29d5bc4",
    ('GL', 1, 9): "e9d39a6aa27175052cc15cb8d5a9289996a3c1f8b78e8cddb0b13f4e8bb62cd1",
    ('GL', 2, 2): "7602ff0653765b6ccaea0e3e84bf292eb4f5464a9278e868f5b947338f1b4edf",
    ('GL', 2, 3): "84682b9c20a9f9b192342afd3ba18d528e05498d9128da8c08dc01eef49ac597",
    ('GL', 2, 4): "ff5bf5315f9badc7052ca5955766e60b19409d2eaeaba638aaeaff8e5fffdc28",
    ('GL', 2, 5): "00245cb5afbffdbcf6dcddd8ed2981df158afb4f9fa478ab66de017b2c48fe06",
    ('GL', 2, 7): "f2be6dc7fa59584d01dde85238b9517509bfbafc0489c1ff5154d0f1b1c7e3ed",
    ('GL', 2, 8): "1f9714f3e476256525d08109e02f31d61cc5cb1e83754c341647edca79373ee8",
    ('GL', 2, 9): "c6361a01707b00b4b364a16ba2c4dd97313b2034564cec0bb91540c644928d53",
    ('SL', 1, 2): "f0cf0847ab33b864bba2666295ac55d68fb9bef9b8709e9bc18d67ea2a8235de",
    ('SL', 1, 3): "f0cf0847ab33b864bba2666295ac55d68fb9bef9b8709e9bc18d67ea2a8235de",
    ('SL', 1, 4): "f0cf0847ab33b864bba2666295ac55d68fb9bef9b8709e9bc18d67ea2a8235de",
    ('SL', 1, 5): "f0cf0847ab33b864bba2666295ac55d68fb9bef9b8709e9bc18d67ea2a8235de",
    ('SL', 1, 7): "f0cf0847ab33b864bba2666295ac55d68fb9bef9b8709e9bc18d67ea2a8235de",
    ('SL', 1, 8): "f0cf0847ab33b864bba2666295ac55d68fb9bef9b8709e9bc18d67ea2a8235de",
    ('SL', 1, 9): "f0cf0847ab33b864bba2666295ac55d68fb9bef9b8709e9bc18d67ea2a8235de",
    ('SL', 2, 2): "2ba262c06601aea6fa9dac81dd8378998cbb0ba5867f84e0145cdf9c16915617",
    ('SL', 2, 3): "aac1262b8e3cad1c1f7671b7f6a48b5f2918d1cdffdec9a5bf33182c0776d888",
    ('SL', 2, 4): "f4b22a404607e90cb6642aebd82a16520dd41e8960ab0e2d1365c85c4a2cabe0",
    ('SL', 2, 5): "0a6232223c71aed02690579bbca97bb9ceb4f28029b22ca952b4f8de8f4c1ee0",
    ('SL', 2, 7): "a16ad99817712916f412dbe059748e69de5391a0f0395414873ab2e32774acfd",
    ('SL', 2, 8): "598c01f3e8da993f8604eb9a70e660abf5612e5b3abd93fd953af68405486384",
    ('SL', 2, 9): "379994f44ff6d69fe1cf40885a43cd0dd4aae101bc2d72194f3b975400022f91",
    ('GL', 3, 2): "fb34f47cb56ce65b99997ec7cc12c452bee1670fa4d34a9c5ec1f31a6bf5b217",
    ('GL', 3, 3): "3697b9b0cf63434644cfe5bf76db7fff967d0c803a6fff298618943d1b9725dd",
    ('GL', 4, 2): "e8e29324658e135e19b33d238fb333ec6010e942f63024a59be7ed378a6fc858",
    ('Sp', 4, 2): "c464067da3d76291fd3efcaec191f56c4af1b0eca77dbccb5bc66925bca1cd4b",
    ('Sp', 4, 3): "1d9aeb2694fce67e04e90cf5bc92c2eda28527edcbeb10ccf62944f897d744fb",
    ('GU', 2, 2): "248bef3b4fae56181d8a95e705458e1486fa286167ad13d52a73fd9d26911b49",
    ('GU', 2, 3): "2210764e70d824801edce32dad1c0e42a976c92263548dd9ce685ce238328b1c",
    ('GU', 3, 2): "5484dd8d7d30bc3da6004aacfe3a6605bbe733c70ed34656b373de5f2b189063",
    ('SU', 2, 2): "2ba262c06601aea6fa9dac81dd8378998cbb0ba5867f84e0145cdf9c16915617",
    ('SU', 2, 3): "0b187cf8ae93a40663e8495d99e1daa941b0f0304726aab4585bbcfeff364bbb",
    ('SU', 3, 2): "1711a5796c4f2b144ad7f4b204d25e5b2c859791937405f6c5c1db417ede5c31",
    ('O+', 4, 2): "4205c7c5dc86b8450363f5a8770cd5d54fd1354413f09adb739063e6f67fffac",
    ('O-', 4, 2): "519ae603ac3a757301efbff4d5a418e0d943632cd746e2a03e79c7907e31f463",
    ('O+', 4, 3): "99181af37d1307097d56bfb02531f0a3b5308037989902bc0c030545a6b26e32",
    ('O-', 4, 3): "3e4c3e2d36ad50352c1a1845519c0e1d830c34fe788b26e5b70593aaaff0e22b",
    ('O+', 4, 4): "94859144005f1038b5dab45704967edbfb2e44f6592b18dcb15291a83c80844c",
    ('O-', 4, 4): "8c2905aaf8e80f0e2f15272916b6b386461abd316f88bd8bfef54866348d3a6f",
    ('O', 3, 3): "863f4cd543b059c0cb1485a59775c44f7a1058613d29c2c857f135181bddfffa",
    ('O', 3, 5): "19d57677bfa167ec92673ae8e5cc179717cf290557ffb6548dd794ce2b80e8eb",
    ('O+', 6, 2): "436e5d1200ede54660bd83aa99ac5875b4ed388242fb1af205762665bf5c4abe",
    ('SO+', 4, 3): "9fca86478ec4fec172b9937c98a1ed544e842027dec38c4560e5d9307ad65dbd",
    ('SO', 3, 3): "096847afb06be9d2fcbfd6c7f185a0e6d0dd29aaebf548b0a7a2ba1958c8c632",
    ('Omega+', 4, 2): "541da3fa7eac29f9ca1e47dd0550398402e3f1b7ffbde71a00b3a12ef63f07ea",
    ('Omega-', 4, 2): "ee91787be87ccbf13c716bf5d6e9a6c9a9743291d03ca756dc87befd036b2ccd",
}

# q -> sha256 of (modulus, add_t, mul_t, neg_t, inv_t, zeta, dlog)
FIELD_DIGESTS = {
    2: "c85a1104b876d2869579f3fbd8d595f0f185617b05b7d864db63b9944628f05e",
    3: "da9d98c5d676751c734f9a7f6f2363ed63bd791f796f75b3e37dedc0c65a39d8",
    4: "d51a03825c26e5749fe51649e4c975a8dcda5a6191db0950c00960d83e586a6a",
    5: "1019982adb76305473d7a1cd3c2b0942287febd9a311f5bfb55849217fecc294",
    7: "5c2c911102f9f9fad17c0224e514947b266f566003f5dedd4336aa46c73ec04a",
    8: "cd2f64da81c433d978e01b9d67f220ef92a8b18927c2cb7ce06071d83455c6a3",
    9: "0595f55e1c7f25224996ad3ef7fad6b52371f4547719de79b456cc388b9194be",
    11: "8ef4dd4dea8cfd3e8554d844bbf4d72d67851ebd99854bfa3330161a96dd7fe8",
    13: "8a932fd627958cbc266c6aae2d6d4112c65217c6ba0dab4b31aab4cced18d436",
    16: "fe255329874e1c50e526ad25f56e08f313e44a4d5face506d47351e62e11759e",
    17: "c553b1496a82553278da57db9bc196bbe26a6051e1dac06262fedeaae838cad6",
    19: "64e6075b94e17f8e5ff94a83a4af56b29cccc6151064c11874d0438a4be479a2",
    23: "5ee658317cd5521ad35768d411aa2095618afc06ac18c8a201f5635e92e73cc6",
    25: "494a7ff13f2bc0b958526a881324dc1eede2ebe29610a3281bf879a323d421d5",
    27: "82f0265bd2306fa5e585bf299b9f04d10a9f6b987647f833869b70e1e9ac9dc7",
    29: "6a03a4659caa7fb130f413a77c7918bb9c83af08dd3ddbb0f0cfe846daf0097c",
    31: "d6f52d5a46210f6e72cbf15ca51ce3730924c1a31bff0c683921f8794d3ed2f1",
    32: "ea09aa2460f0df9fb777e1882d734df763beacc4f0082aeaa8488a48d77dc54f",
    37: "65bf113de7500ba22afda02e84b69aa43e3d815f13746e147e9b3bcc810445b0",
    41: "73b09c930dab01a4748eadc92009cc8e23a2cf49642b222d30da3f1c8b26198a",
    43: "885fb62899f211bc449fb5162fb127b8cca42b1c38be727fe042cb719c4f2dff",
    47: "203ee70465c1c309acf110adbd22657c10b880eb17ad8c50dc06249f83f50512",
    49: "790dcdb620d618034da253a21ca3aea611d4bf2cae2f4a64c170c08169920c6a",
    53: "6f7987156733a4596c4ec8111879b64904a3d063d81bb30791d7b8bc3e5a5ec7",
    59: "1f6a8d009887d6469c44631009e35013b62f007a7646d5bf0f4ba1f44cfb3494",
    61: "b7599933ba76a5f34fd8f167d167a72c7ce715099d18aff49796a5420f07f073",
    64: "d0029bb1e6613b0d43ec69dd0b28d91531bb8a270d49e5eabb1cac435f88913f",
    67: "9b31a82e4a12fd11c8ba90b6060793fcc9a7facb16b072ec034d3d0b34bb9501",
    71: "ceae54b78ef229bd89a82b2b519520126af591e21e4976d3386a755a68633118",
    73: "fecfe72263fc86434b6ae78b2efd1681c5908a33f734da7cb5fca4a9dd12a79d",
    79: "3bbf285756bb1fbbccce7de468c43415ac27821d24eeac0cb6e24497c1666fbd",
    81: "e05ed2fcdfcda01ab7a44a05dcd93c9e3e228595902d60a92fde3fbd4852ca98",
}


@pytest.mark.parametrize("key", list(TABLE_DIGESTS), ids=lambda k: "%s%d(%d)" % k)
def test_table_digest(key):
    tb = build_group(*key)
    assert all(tb.index[g] == i for i, g in enumerate(tb.elements))
    assert len(tb.index) == len(tb.elements)
    assert sha((tuple(tb.elements), tb.labels, tb.gens)) == TABLE_DIGESTS[key]


def test_field_digests_cover_every_prime_power():
    want = []
    for q in range(2, gf.MAX_Q + 1):
        try:
            gf.prime_power(q)
        except ValueError:
            continue
        want.append(q)
    assert list(FIELD_DIGESTS) == want


@pytest.mark.parametrize("q", list(FIELD_DIGESTS))
def test_field_digest(q):
    F = Field(q)
    tables = (F.modulus, F.add_t, F.mul_t, F.neg_t, F.inv_t, F.zeta, F.dlog)
    assert sha(tables) == FIELD_DIGESTS[q]
