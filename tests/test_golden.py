"""Golden digests: report bytes pinned across versions, not only between runs.

Each campaign digest is the sha256 of ``report.dumps(include_timings=False)``.
The campaign grid reaches what the benchmark grid does not: d = 3,
budget-exceeded records (node_budget=1) and the tightness violation record
with its points and caveat.  The exhaustive scans pin their per-size subset
and cb_true counts.  The generator digests pin the canonical JSON of every
family's output (points, then configuration) and of ``extend_to_hyperplane``,
so RNG consumption and point order cannot drift; a case that raises pins its
error type and message instead.  The matroid digests pin the flat lattices
``flats(m, R)`` for every R up to one past the full rank, the
``is_mcb`` reports (witness flats and excluded element, in both modes) and
the ``exists_flat_cover`` outputs, over point matroids and abstract ones.

A digest may be regenerated only by a change whose sole purpose is that, and
that change must say why in CHANGES.md.  ``python tests/test_golden.py``
prints the current digests.
"""

import hashlib
import json
import random

import pytest

from cb_lab import (
    CampaignSpec,
    FieldSpec,
    GenSpec,
    Matroid,
    PointSet,
    counterexample_search,
    enumerate_points,
    exhaustive_lower_bound,
    exists_flat_cover,
    extend_to_hyperplane,
    flats,
    gen_plane_curve_ci,
    gen_rnc,
    gen_skew_lines,
    gen_two_plane_conics,
    generate,
    is_mcb,
    run_campaign,
    span,
)
from cb_lab.errors import CbLabError

TARGETS = ("conjecture", "tightness", "excision", "balancing", "mcb_analog")
FIELDS = {"GF(101)": FieldSpec.prime(101), "Q": FieldSpec.rational()}
BUDGETS = (None, 1)

# Seven trials cycle (d, r) through (1,1) .. (2,3), (3,1); the cheap prefix of
# the full 3 x 3 grid, which still reaches d = 3 and the tightness violation.
CAMPAIGN_GOLDEN = {
    "conjecture GF(101) budget=None": "2b858c99ef0bb224af451727904d5a8c879eccfbb8eb8acb75f3d181575a1637",
    "conjecture GF(101) budget=1": "0c1e2625df1cf22b036941dec82235ec14e19890a7a9616a46a8d3e6140b2fd9",
    "conjecture Q budget=None": "7ec516f004d71bf4fed7c5ea413dad51325b73d1692910a5541f2bae1367a512",
    "conjecture Q budget=1": "8659239f5d3c57331c40b7c8afd2ef7a6b17a64db1773053acf790aa7349a100",
    "tightness GF(101) budget=None": "1961418aa71f9592836cea82a71266c626bfb4ff2c7427faf829434ea7076280",
    "tightness GF(101) budget=1": "69cca0add61476d84e4741747bb5f58b0460301309fbf0e4df406ddf62dafcfe",
    "tightness Q budget=None": "a979090aa9a4a6513fa801dd76f5eb9668cd7adf5a3df0fc29cea24d31a5830a",
    "tightness Q budget=1": "37b01e33e73e5771b03327e28df2393926150df32cece2a2ee519e51971dc488",
    "excision GF(101) budget=None": "4dc7afc868aa18eda40408fa371f39ba7134c55a4ec23e4b8ab53b4f314806da",
    "excision GF(101) budget=1": "dea5cedd4afff164131b5adaba56622f537357c3c79d406b1bdc6f2003015460",
    "excision Q budget=None": "77d6feb4c038f623df5c311946a03060da92fe13465f2af359c3f6e946079cfb",
    "excision Q budget=1": "a181fd95d4105c02281aa2ac3f79948b20b9391ba4c3fa0fb83ccfbb1b2305f7",
    "balancing GF(101) budget=None": "34298fba34b3bb2559155b61f527ca6c8776ef3fbd9d5f6f278efc6bdb8cc708",
    "balancing GF(101) budget=1": "c131067b5c2f4368bd74b052fc98a135475334acd4e04168f85866b5e2f9f053",
    "balancing Q budget=None": "5b074f326f970b2bf6fba716fadc8dd64272f3cb9255c9b596ca42558b7c76ec",
    "balancing Q budget=1": "dbab6f2298c690a473d425cabbc062c29b41ce4b9634dcdd75a81de786c87fe6",
    "mcb_analog GF(101) budget=None": "374718c538a09ff3019ab8c020d9f69d7f77515ac1d798e63c4cd1fac2e7cbfc",
    "mcb_analog GF(101) budget=1": "cddc93da0f6b5549bf4da06dd610f26c676b6ff1e751d0be170968a84ac36679",
    "mcb_analog Q budget=None": "14b1a57f1199203ad99bc960d407399be96af04796d2279b11228d3c2a1d8cee",
    "mcb_analog Q budget=1": "3263d30efa033e2f147b00c317f33ea3da6642fe842795926515ef8a9f7e00bd",
}

SCAN_GOLDEN = {
    "lower_bound GF(3) n=2 r=2": "df63a2a9ec60114a1f269c0b277b851685c0d8e07e3ba1bd7124817931e63d06",
    "counterexample GF(2) n=3 r=2 d=2 cap=4": "ca11966ef450dcc3026094c68b5fda8bfb55d0cf9ab451db1faa740859757afe",
}


GF7 = FieldSpec.prime(7)
GEN_FIELDS = {"GF(7)": GF7, "GF(101)": FieldSpec.prime(101), "Q": FieldSpec.rational()}
GEN_SEEDS = (0, 1, 2)
GEN_PARAMS = {
    "rnc": {"k": 3, "m": 6},
    "skew_lines": {"d": 2, "counts": [3, 4]},
    "two_plane_conics": {"points_per_conic": 4},
    "plane_curve_ci": {"deg_d": 3, "deg_e": 3},
    "elliptic_quartic": {"m": 6},
    "on_configuration": {"counts": [3, 2]},
}
RATIONAL_FAMILIES = ("rnc", "skew_lines", "two_plane_conics", "on_configuration")

GENERATOR_GOLDEN = {
    "rnc GF(7) seed=0": "1099f78dd0438b7e7e3a4d820586d0b0e163299e08a60aa305ff509c3a831947",
    "rnc GF(7) seed=1": "6183b7dcbf508e8581ce3749ff1acff7a80df2f4cf07ca2a44050d0bfdfe666a",
    "rnc GF(7) seed=2": "d4c69fb4166baee08789663d7ef02fc84edb721fab69c5e2600196ec795b6b3f",
    "rnc GF(101) seed=0": "d427ec829f424d24c6bf6fd508b6c6414dc3589732c2cad4064be5ae525a8d7b",
    "rnc GF(101) seed=1": "e339e2abc4923521e6b177552310a7a93b20b811a079e8dd093ceca8af0eae4f",
    "rnc GF(101) seed=2": "4ff059458c2f57d458e9f588c3f4de882055c9b894cf832be2b89a536995206f",
    "rnc Q seed=0": "1a8dcd74b40c7c8899ae3e4bb4bdfdd880c866548d5d42f198ea132f43b55bf3",
    "rnc Q seed=1": "6c6422d2be8284f5554f330793442ead2f12485f6ee4fcc37f7e40fe7865c25c",
    "rnc Q seed=2": "e2f36c6251f69703506659d855bfac7a5c5fa44a229768712a1786e68b121ebd",
    "skew_lines GF(7) seed=0": "a4306e6da8bdeaca76edfb95e08a4e1691dd78fee763e1899f4249c8018d4c85",
    "skew_lines GF(7) seed=1": "7196e1fbb83a2fcdc967870ae8215fccb0817f7e93652dcd82df2829891ae62d",
    "skew_lines GF(7) seed=2": "9bf4bb9f0939b72612c620195c67f01df8349ac8231baa8d4e1da2de501da146",
    "skew_lines GF(101) seed=0": "a006e1ab7d6aa23f8d8dcf749436df2dfd6263472404ee4fe6742bdf95484f0d",
    "skew_lines GF(101) seed=1": "d8b716c9872ba52a44361eb3fb00ac87ed26bf406b4c99cde3358377360e7223",
    "skew_lines GF(101) seed=2": "1c8e18dec777c7fd78344ff7185c19cf78bb69d2342835e8f297429d551e67cd",
    "skew_lines Q seed=0": "1775937ba340e1cc913041628dfa29cfdb203925a20bc7ddd57e4c3ee7882801",
    "skew_lines Q seed=1": "38b21085caefeefab5438da0f018f20a649f4570943358c7d12d7807f8d47a9c",
    "skew_lines Q seed=2": "09bc88376ba40c225bf279816d9fc318e33ed001c6c4b21aed88abdf34062996",
    "two_plane_conics GF(7) seed=0": "2060df8524babc19d1a183342320b3fe2a03e972eb951491c432f540833fa1c6",
    "two_plane_conics GF(7) seed=1": "3e8baaf61b8bd882a32466352d532004443c516e2741b9552472fa2a6246138d",
    "two_plane_conics GF(7) seed=2": "536db34ce725b4d0d8ab20233edb106b9cb73c496d9edc9b0742a4392af0e024",
    "two_plane_conics GF(101) seed=0": "b77ceb9761413b9bef3a0d450a12ef0736715cb7e3a57033b5345482b5179586",
    "two_plane_conics GF(101) seed=1": "63430e584d84c5b6e017945074796bed981de8e9140c48731bbb65ffbbfb82c9",
    "two_plane_conics GF(101) seed=2": "8a07940fbbf30c9f3d8c28829d6f52e4f87af965b350764a7a06a08f1a91ba33",
    "two_plane_conics Q seed=0": "5a9ce5cc6d8a12371424c2f8f7736d419b2d3dca4e4b97354915c7373282e82b",
    "two_plane_conics Q seed=1": "ebc844495ec18b710f66fea449deafe9ae55e767cb7491ab4fe649212b0ee701",
    "two_plane_conics Q seed=2": "d72eccec05f38fa82612ae9fb2f6f9e64197c6eaa1f6e486c5fb544619f8036a",
    "plane_curve_ci GF(7) seed=0": "11b8bd8cfbd8dbeab5362caca919102b9dce9f1e1f7fd86fd52d11dc8e67f2e7",
    "plane_curve_ci GF(7) seed=1": "e1c689eb9797ff1dddb7813a841f1e107ff13d0088fcc89fcec0dd0912c3fe1c",
    "plane_curve_ci GF(7) seed=2": "8f7c3e93178666bf8241466cb0fdc99d48f50de8f03f2b4157f6fd96cd540dc9",
    "plane_curve_ci GF(101) seed=0": "b5a96047438b1256ba34b6f2d7b5adbd0ff6e7f7c877e7d919b9e9949f375d85",
    "plane_curve_ci GF(101) seed=1": "223a53db2340461c873cf1d3272748d3a092c70b22d98a351422773b8e086532",
    "plane_curve_ci GF(101) seed=2": "1bbcc7a3f7db8e883e7619a494835c564099f8b510aac129814e315c6050ac6e",
    "elliptic_quartic GF(7) seed=0": "c264d6e5c695d146fb579942786cafbbabb6c41836ca97d04a1761dc3c3e8efb",
    "elliptic_quartic GF(7) seed=1": "8b8508cbab973c0d29c93483741af522b2590a27d25d467e7ec23f64d0f14284",
    "elliptic_quartic GF(7) seed=2": "f9e50e30dba84b5d8f3cf02c83f9e09bb2f587eaba7521ae172a7002c35ff762",
    "elliptic_quartic GF(101) seed=0": "0c6a242d889f83d767e40b963a6be2ae9607b2eb4ab54a2e588ed634c53a155c",
    "elliptic_quartic GF(101) seed=1": "181cbfe79ab5554b9ee9c5a118513733022b34ec2c01d8fbb01d98f62b01debb",
    "elliptic_quartic GF(101) seed=2": "98c743058bb364ba1a0f5ad4ab4a8bd66b071d3bc5ff92c92515546df90edd53",
    "on_configuration GF(7) seed=0": "31d33023ba96b080c6740ba83df25e5e4b3f8053d65dc0620a720eccd248ef22",
    "on_configuration GF(7) seed=1": "2de6107f3647761f9ac2f67e3ec42809b1dfe7f79c6690837bf36e4deafca531",
    "on_configuration GF(7) seed=2": "fc26ac5729a2e79a07cf195ccb1b31a7bb2834c74dc68513c567ad5d93b77138",
    "on_configuration GF(101) seed=0": "112c06ff9bd8981a9167271dbcdf3d0f1ab3d655ab7af63acc7ba87094d0008a",
    "on_configuration GF(101) seed=1": "8d1828e8c34943dcc4177ff8e883d4514db4a5e082da7daa197f0420f38eb898",
    "on_configuration GF(101) seed=2": "7057571c927b7d5f2535b8ee9e93e621aba05578737341d5c26546655ce7b60f",
    "on_configuration Q seed=0": "ae435c537fb51580e54aba592e56f24c068f54a78bc70788169a909f2890b857",
    "on_configuration Q seed=1": "7d3fab81ec53cb71ecd619a9b1ea4c3fcc98d31425601d776226f384a1158205",
    "on_configuration Q seed=2": "062337a5b5a6d534629c4a63da48a5a81f3b666ef3e30a13373e98febb22a6c5",
    "rnc GF(7) m=8 seed=0": "189e1553408ccd98d79011eac048856677f2d2f49471b74fb5d8f1f73a9e253e",
    "plane_curve_ci (1,3) GF(7) seed=0": "ea7c363127ecc381e7ad453ab30a8b489acc58a956853c599de054fe68eddecb",
    "plane_curve_ci (1,3) GF(101) seed=0": "5d1d68b9ac73e0ef62b8187c2585b044341af8d0cd78f42f441c8e7212594098",
    "plane_curve_ci (2,3) GF(7) seed=0": "844653da08691d47d64d2bf7950c41c6d8d6cd0c5188e4506cba8faa898e51b1",
    "plane_curve_ci (2,3) GF(101) seed=0": "15bc5f694f8fa697d547a4016c718552ae7ea5c2a5092a1ae627f8c38494cdb1",
    "rnc GF(7) m=8 seed=1": "189e1553408ccd98d79011eac048856677f2d2f49471b74fb5d8f1f73a9e253e",
    "plane_curve_ci (1,3) GF(7) seed=1": "77ac61c6fde5b3146eb9b102fc42995ade50bd74d794c7b5022cf3b254fa7318",
    "plane_curve_ci (1,3) GF(101) seed=1": "7232c9ba7d5ad1dd1f0039e500abba80f34f7d38beeb8409d0fc0cbf4eeacbba",
    "plane_curve_ci (2,3) GF(7) seed=1": "7f05d159bb3e62bf88d911ce1921b732c533e05eb08e74987687765b90de4807",
    "plane_curve_ci (2,3) GF(101) seed=1": "3d2aff5e45e36e83b2b774795bb1e8292db19cd3e2aab914d575b1ccec1137c4",
    "rnc GF(7) m=8 seed=2": "189e1553408ccd98d79011eac048856677f2d2f49471b74fb5d8f1f73a9e253e",
    "plane_curve_ci (1,3) GF(7) seed=2": "6ab9d48a4c76327bc5039f444ccd0fd9955cde45041589e400d28eed911c23f2",
    "plane_curve_ci (1,3) GF(101) seed=2": "953ccdf1e9a8c525eaedf804be6549e1b294945042016c113095f5bfa821199a",
    "plane_curve_ci (2,3) GF(7) seed=2": "59819605a11abee262b0cc4ed86d4c20757579c95c012299757860cc2ef38ffb",
    "plane_curve_ci (2,3) GF(101) seed=2": "1f4cea8d125067977c01d49b364a9bc7529e907cab615c0befdce3b1613fb6e8",
    "extend_to_hyperplane GF(7) crafted": "c04bb8df4cc25371f608f5e6526d4ab723e585de2cbfec5a09187577a0b8eabb",
    "extend_to_hyperplane GF(7) rnc point seed=0": "728edfaf5ea90f3bce649715c34b1ef3dc4a9106cd01e6bed8291d833b089a62",
    "extend_to_hyperplane GF(7) rnc line seed=0": "7425cf95df1bcf210bd497c5a0f01462672d8bedce347fd96c674ce3e62aee47",
    "extend_to_hyperplane GF(7) rnc point seed=1": "771155a89cda5a9fbc37174d32cb558a319ed51ff48b08f6d907a9e1d36c337a",
    "extend_to_hyperplane GF(7) rnc line seed=1": "27ed6d7eb54f4031d11622a27e6d6f59bc6b057d20c6731b4b25f69540afe421",
    "extend_to_hyperplane GF(7) rnc point seed=2": "728edfaf5ea90f3bce649715c34b1ef3dc4a9106cd01e6bed8291d833b089a62",
    "extend_to_hyperplane GF(7) rnc line seed=2": "9c169cb826eac70fc64e9dc5d581fe423ccef28f4711385ca5faf5f39f13e20a",
    "extend_to_hyperplane Q crafted": "a3155aeb1d4f951a794ebb2f8aef27c987c37b5a4da5c8d5390303169d668bb5",
    "extend_to_hyperplane Q rnc point seed=0": "ca91d8d45b9777e64f283ea332ce6cedcfa225f233aae1065f717326ef539d44",
    "extend_to_hyperplane Q rnc line seed=0": "5bf36df4d30642a02e853965afc56fe2746e340ac81675ed0d8935fe908d27c4",
    "extend_to_hyperplane Q rnc point seed=1": "950dab33175fe1afde6ab10d8546fb6c2a98ca3006db4ae695c3cdbd433ba515",
    "extend_to_hyperplane Q rnc line seed=1": "e3dcabbfbc5140f6f58249f470f5580d0c8256a2f215903e3f1169c9b5af7d1c",
    "extend_to_hyperplane Q rnc point seed=2": "e55cb4afb33e153ea11ff4d3096cfab341b7ce2a013203deac0ca04e06851038",
    "extend_to_hyperplane Q rnc line seed=2": "20125350f201312875096959a066fea4501b8eb976e9b785526eefafb2481b81",
    "extend_to_hyperplane GF(2) too small": "da7a03aef382a75b4cb74abaa7c0b609f0be5b8f10a81ddf753550b144e5920f",
    "rnc GF(7) m=9 too many": "40fc5c7bdd5ea2fe8c7612013f1d9f389e4494ae8d4c41655eaaff6553cb3a4c",
    "skew_lines GF(7) line overfull": "2f5e2e2864cf5f8d2347ba4e2715aa44fe6390b2dc500e59fd2727ce7ecd80f1",
    "two_plane_conics GF(7) conic overfull": "e7e31985db06c7bc296be4f0c8f54b1126ec4b880dbb29dad5c7b9cef8e5b0b7",
}

MATROID_GOLDEN = {
    "flats GF(2) fano": "21989b1f89e3724004d18edb3f54dfe74b231e6f7929b33b83383ee01ea81e1f",
    "is_mcb GF(2) fano": "26773b6ddee5e884099dd8cbf3e284b5cdcd545cce6ecbc95a65f0b7ee2db825",
    "exists_flat_cover GF(2) fano": "5e8e3fb22fa2d25eaba873a60eea1aa0e3cf3e993f8c1a3b4349be2d50030e43",
    "flats GF(2) P^3 sample": "5361168262b255807cdfeb656c3984d984d9f50cb3285906356ff8b29ff225bc",
    "is_mcb GF(2) P^3 sample": "6f9bccc97ed576ac0e58cb765a2a67d8480ebc44c89b6c02452556ebbbf65925",
    "exists_flat_cover GF(2) P^3 sample": "804b08a404d39a292663492aca4bae06ad352a11ed5a1d8b94b28ccc5df789ea",
    "flats GF(3) P^2 sample": "81a1cd80cc4e80035a5c239943679f37146117e569970fb260caf9d681403dd7",
    "is_mcb GF(3) P^2 sample": "0bf2b85d02f9bf4d89535253bbb8a7b9991327b75723b8007fb6211541720321",
    "exists_flat_cover GF(3) P^2 sample": "0ebc3461341c388fe3b6f9b4a916afd80a207e869bccbea77570997ac750288c",
    "flats GF(3) P^3 sample": "fa8869d22517a6ee998bb5aa736f88880b7df8e78ac84bc35de8f301ce40f53a",
    "is_mcb GF(3) P^3 sample": "6d7b2e62a0c96617e3150d7bff8806c3cfd53cf9f8fe0cd41bd88f36a631ce16",
    "exists_flat_cover GF(3) P^3 sample": "1fc16810382de3db77798e0317ba87c61fa0b269ee3761d80900923492ac8de3",
    "flats GF(101) line and point": "d026cf6b65f2fbb1dcec2edc90733bdaf0bcccdd3e9b53cebb5fccfabf7cba7d",
    "is_mcb GF(101) line and point": "6d72cc2211848393fc3c64f386e58a6c859d1aaadaf43317b9a0a0d489b8585c",
    "exists_flat_cover GF(101) line and point": "2132cbd480c687ca642c5dd1ea5ddbcab48a6c164d0bf460309dfa3b31cdd0d4",
    "flats GF(101) skew lines": "588043fc447bf6fca790a3fe4ca36e34be227cba99dc16bae392798766f47050",
    "is_mcb GF(101) skew lines": "1b59e9986133ba349b4ff2548762a0000c3eb66cbbf0c2abf64a977a667d062a",
    "exists_flat_cover GF(101) skew lines": "cf0cbc980b843172f9db6a4dcc8ae3ff0d0caebbc80501da98e788354f557f1e",
    "flats GF(101) rnc": "9da2ecf0d88fe277f8afd129f5bdbc48e6065ea16f5c033d7abf74d41adad882",
    "is_mcb GF(101) rnc": "3d057dfca61b4e37893770bbb0a4ae21313b652af74708c74f45fc8b857d3c6e",
    "exists_flat_cover GF(101) rnc": "82e71347ea87f3e555653a9e152c45d3c0a354656f7ec7d2cd6bbcfcf902dad3",
    "flats GF(101) plane cubics": "3529246607fb04d8f36d520d5cb2a4c3048a9185ba9a3c78c43fcc63b4825e6c",
    "is_mcb GF(101) plane cubics": "33fd7c119d137291b9ac908546407c3760c08c76cedccb14b7628cb51773829b",
    "exists_flat_cover GF(101) plane cubics": "bccedaecad4f53967e73ef6ccf6dfc645cc130ab580819bd3c77c6cba5fa2eee",
    "flats GF(101) two plane conics": "646c419d7fc5d05beb54b478e42afb291f75b32ca1bcf6501eb8f4be34c0b478",
    "is_mcb GF(101) two plane conics": "06b3c126e27e98558e4941b57932320c070449dc9e46a9afcc2d744c9c635cc0",
    "exists_flat_cover GF(101) two plane conics": "649b5265e6058ddaa330e4d613cfa15b388dd57639ce4697ecff11e213a2f271",
    "flats Q rnc": "44884e80401eeafb8ac4c73f5492baa7c27352d91a50b47d9acd309c60dca86a",
    "is_mcb Q rnc": "372bf87bb1d9b1202156cee7427b49b626d609fe1dfe3ace2efa8856816bda1c",
    "exists_flat_cover Q rnc": "e883e8e799ec1dd58ca339c20ac4c4c058079e269acbc37125b593ac4ddc4710",
    "flats Q skew lines": "286fbeaa79d2753fd21f55ef23146985ce7c97a209ffdbf50aa8b22841867dd2",
    "is_mcb Q skew lines": "28b26889a92a1bc4ddbe192215adb86aba8036624900650c4c5078be03a883be",
    "exists_flat_cover Q skew lines": "58233db72887162f182dc65dfe1e1ecc3376088eff4393b0feaa0dbaa6cbdda8",
    "flats Q special": "a3dde5fdad359e259f54b31e65db83662c370e163d18371912ad73cd65b411ed",
    "is_mcb Q special": "81ce8f8579eb9ffa155d06c2e25d6eea37e3c55553e91184cd8d51301bc2918a",
    "exists_flat_cover Q special": "7736839a25853dc02ce646c6b8d659e8bc583dd2923d49a6ed89cf5bb035ef86",
    "flats U(2,4)": "9e024e1d313db4616408b825f0460b24f9610db0156f11fc297ca9e462e2e209",
    "is_mcb U(2,4)": "311f54d11eb089128edcd108f1159ed15c85a1e10cd4732e9a7cb573048070cb",
    "exists_flat_cover U(2,4)": "33fa0141aec78002054291ea5c3159c40907b39eeca013374f3a44138c7ad93e",
    "flats U(3,6)": "0b705219420b656504e88a3debd92c75799c2f08575be20241bae10d7778ae3f",
    "is_mcb U(3,6)": "0ad3188f3bd4c89ded05787e2440e88e905fe58c5d2f9d1e17f97a0c5494fe53",
    "exists_flat_cover U(3,6)": "816f3edf5d863544865078c879e887420025f2d8978739b8cc9c3471af3a4127",
    "flats flat list": "5956d3f0b142b52adb6ad092d57ca1b0165a5087bf7614464097f8eb71c4c3a0",
    "is_mcb flat list": "8a9849ceeedfa7df5c51947c5ef9a8f672c0732e6be5bddc4a24795f91c8141d",
    "exists_flat_cover flat list": "b623901df8fe524d8c1a5757e7052a01690a5b2fbbdf25d4bc7310fe6962d72a",
}


def _digest(report) -> str:
    return hashlib.sha256(report.dumps(include_timings=False).encode()).hexdigest()


def _campaign(target, field_name, budget):
    return run_campaign(CampaignSpec(
        target=target, d_values=(1, 2, 3), r_values=(1, 2, 3),
        field=FIELDS[field_name], trials=7, seed=7, node_budget=budget,
    ))


def _scans():
    return {
        "lower_bound GF(3) n=2 r=2": exhaustive_lower_bound(FieldSpec.prime(3), 2, 2),
        "counterexample GF(2) n=3 r=2 d=2 cap=4": counterexample_search(
            FieldSpec.prime(2), 3, 2, 2, size_cap=4
        ),
    }


def _outcome_digest(make) -> str:
    """sha256 of the canonical JSON that make() returns, or of its error."""
    try:
        text = json.dumps(make(), sort_keys=True)
    except (CbLabError, ValueError) as exc:
        text = f"{type(exc).__name__}: {exc}"
    return hashlib.sha256(text.encode()).hexdigest()


def _family_output(family, field, seed):
    config = None
    if family == "on_configuration":
        _pts, config = gen_skew_lines(2, (2, 2), field, seed)
    gamma, cfg = generate(GenSpec.make(family, GEN_PARAMS[family], field, seed, config))
    return {"points": gamma.to_json(), "config": cfg.to_json() if cfg else None}


def _hyperplane_cases(field):
    """(name, flat, gamma) inputs; the first is built so that the coefficient
    scan must pass several candidates (over Q it must widen the box)."""
    crafted = PointSet.from_coords(
        field, [[1, 0, 0], [0, 1, -1], [0, 0, 1], [0, 1, 0], [0, 1, 1]]
    )
    yield "crafted", span([crafted[0]]), crafted
    for seed in GEN_SEEDS:
        curve = gen_rnc(3, 7, field, seed)
        yield f"rnc point seed={seed}", span([curve[0]]), curve
        yield f"rnc line seed={seed}", span([curve[0], curve[1]]), curve


def _generator_cases():
    """Case name -> zero-argument callable returning canonical JSON."""
    cases = {}
    for family in GEN_PARAMS:
        for field_name, field in GEN_FIELDS.items():
            if field_name == "Q" and family not in RATIONAL_FAMILIES:
                continue
            for seed in GEN_SEEDS:
                cases[f"{family} {field_name} seed={seed}"] = (
                    lambda f=family, fld=field, s=seed: _family_output(f, fld, s)
                )
    for seed in GEN_SEEDS:
        # m = p + 1 takes every affine parameter plus the point at infinity.
        cases[f"rnc GF(7) m=8 seed={seed}"] = lambda s=seed: gen_rnc(3, 8, GF7, s).to_json()
        for lo, hi in ((1, 3), (2, 3)):  # (3, 3) is the family case above
            for field_name in ("GF(7)", "GF(101)"):
                cases[f"plane_curve_ci ({lo},{hi}) {field_name} seed={seed}"] = (
                    lambda a=lo, b=hi, fld=GEN_FIELDS[field_name], s=seed:
                    gen_plane_curve_ci(a, b, fld, s).to_json()
                )
    for field_name in ("GF(7)", "Q"):
        for name, flat, gamma in _hyperplane_cases(GEN_FIELDS[field_name]):
            cases[f"extend_to_hyperplane {field_name} {name}"] = (
                lambda fl=flat, g=gamma: extend_to_hyperplane(fl, g).to_json()
            )
    gf2 = FieldSpec.prime(2)
    gf2_plane = PointSet(gf2, 2, tuple(enumerate_points(gf2, 2)))
    cases["extend_to_hyperplane GF(2) too small"] = (
        lambda: extend_to_hyperplane(span([gf2_plane[0]]), gf2_plane).to_json()
    )
    cases["rnc GF(7) m=9 too many"] = lambda: gen_rnc(3, 9, GF7, 0).to_json()
    cases["skew_lines GF(7) line overfull"] = (
        lambda: gen_skew_lines(2, (9, 1), GF7, 0)[0].to_json()
    )
    overfull = GenSpec.make("two_plane_conics", {"points_per_conic": 9}, GF7, 0)
    cases["two_plane_conics GF(7) conic overfull"] = lambda: generate(overfull)[0].to_json()
    return cases


GENERATOR_CASES = _generator_cases()

def _sampled(field, n, count, seed):
    pts = enumerate_points(field, n)
    return PointSet(field, n, tuple(random.Random(seed).sample(pts, count)))


def _matroids():
    """Label -> matroid: point matroids over GF(2), GF(3), GF(101) and Q,
    then abstract ones (uniform and a flat list), whose flats come by closure."""
    gf2, gf3 = FieldSpec.prime(2), FieldSpec.prime(3)
    gf101, q = FIELDS["GF(101)"], FIELDS["Q"]
    # three collinear points, five coplanar ones, two off that plane
    q_special = PointSet.from_coords(q, [
        [1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0],
        [1, 2, 3, 0], [0, 0, 0, 1], [1, -1, 2, 5],
    ])
    points = {
        "GF(2) fano": Matroid.fano(),
        "GF(2) P^3 sample": _sampled(gf2, 3, 8, 1),
        "GF(3) P^2 sample": _sampled(gf3, 2, 8, 2),
        "GF(3) P^3 sample": _sampled(gf3, 3, 9, 3),
        "GF(101) line and point": PointSet.from_coords(
            gf101, [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]
        ),
        "GF(101) skew lines": gen_skew_lines(2, (3, 3), gf101, 2)[0],
        "GF(101) rnc": gen_rnc(3, 7, gf101, 5),
        "GF(101) plane cubics": gen_plane_curve_ci(3, 3, gf101, 1),
        "GF(101) two plane conics": gen_two_plane_conics(4, gf101, 3)[0],
        "Q rnc": gen_rnc(2, 5, q, 4),
        "Q skew lines": gen_skew_lines(2, (3, 4), q, 6)[0],
        "Q special": q_special,
    }
    out = {
        name: g if isinstance(g, Matroid) else Matroid.from_points(g)
        for name, g in points.items()
    }
    out["U(2,4)"] = Matroid.uniform(2, 4)
    out["U(3,6)"] = Matroid.uniform(3, 6)
    out["flat list"] = Matroid.from_flat_list(5, [
        [], [0], [1], [2], [3], [4], [0, 1, 2], [0, 3], [1, 3], [2, 3],
        [0, 4], [1, 4], [2, 4], [3, 4], [0, 1, 2, 3, 4],
    ])
    return out


FLAT_COVER_DIMS = ([0], [1], [2], [0, 0], [1, 0], [1, 1], [2, 1], [2, 2], [1, 1, 1], [0, 0, 0])


def _matroid_cases():
    """Case name -> zero-argument callable returning canonical JSON."""
    cases = {}
    for label, m in _matroids().items():
        cases[f"flats {label}"] = lambda m=m: [
            list(flats(m, rk).items()) for rk in range(m.full_rank + 2)
        ]
        # Each report twice, once per former mode (all flats, hyperplanes
        # only), which are now one search: the recorded digests still apply.
        cases[f"is_mcb {label}"] = lambda m=m: [
            rep for r in (1, 2, 3) for rep in [is_mcb(m, r).to_json()] * 2
        ]
        cases[f"exists_flat_cover {label}"] = lambda m=m: [
            exists_flat_cover(m, dims) for dims in FLAT_COVER_DIMS
        ]
    return cases


MATROID_CASES = _matroid_cases()


def _key(target, field_name, budget) -> str:
    return f"{target} {field_name} budget={budget}"


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("field_name", FIELDS)
@pytest.mark.parametrize("budget", BUDGETS)
def test_campaign_report_golden(target, field_name, budget):
    report = _campaign(target, field_name, budget)
    assert _digest(report) == CAMPAIGN_GOLDEN[_key(target, field_name, budget)]


def test_golden_grid_reaches_rare_records():
    tight = _campaign("tightness", "GF(101)", None)
    assert tight.violations and "caveat" in tight.violations[0]
    assert any(rec["d"] == 3 for rec in tight.records)
    capped = _campaign("conjecture", "Q", 1)
    assert any(rec["status"] == "budget_exceeded" for rec in capped.records)


def test_exhaustive_scan_golden():
    assert {name: _digest(rep) for name, rep in _scans().items()} == SCAN_GOLDEN


def test_exhaustive_scans_rerun_from_their_spec():
    # run_campaign dispatches both scan targets from the spec a report carries
    for report in _scans().values():
        again = run_campaign(CampaignSpec.from_json(report.spec.to_json()))
        assert again.dumps(include_timings=False) == report.dumps(include_timings=False)


@pytest.mark.parametrize("case", GENERATOR_CASES)
def test_generator_golden(case):
    assert _outcome_digest(GENERATOR_CASES[case]) == GENERATOR_GOLDEN[case]


def test_generator_golden_cases_complete():
    assert set(GENERATOR_CASES) == set(GENERATOR_GOLDEN)


@pytest.mark.parametrize("case", MATROID_CASES)
def test_matroid_golden(case):
    assert _outcome_digest(MATROID_CASES[case]) == MATROID_GOLDEN[case]


def test_matroid_golden_cases_complete():
    assert set(MATROID_CASES) == set(MATROID_GOLDEN)


if __name__ == "__main__":
    for target in TARGETS:
        for field_name in FIELDS:
            for budget in BUDGETS:
                key = _key(target, field_name, budget)
                print(f'    "{key}": "{_digest(_campaign(target, field_name, budget))}",')
    for name, rep in _scans().items():
        print(f'    "{name}": "{_digest(rep)}",')
    for case, make in GENERATOR_CASES.items():
        print(f'    "{case}": "{_outcome_digest(make)}",')
    for case, make in MATROID_CASES.items():
        print(f'    "{case}": "{_outcome_digest(make)}",')
