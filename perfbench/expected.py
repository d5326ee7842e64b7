"""Recorded outputs the benchmark checks the program against.

A digest here changes only when the program's output is meant to change;
then re-record it from a trusted run and say why in the change.
"""

EXPECTED = {
    "reproduce": {
        # sha256 of `repro list` stdout (41 ids with titles).
        "list_stdout": "71be502e0599bdf0a0a4d6416124bf9f88c66a60519fa8615b913017c152e992",
        # sha256 of `repro run all` stdout; identical for --jobs 1/2 and
        # for cold and warm (cache-served) runs.
        "run_all_stdout": "434e5bd89b67b29004ab51e3c82043563427b032881f20b9d0ad3d306e7dd7fa",
    },
    "replay": {
        # sha256 over both hierarchies' stats and the sampled profile of
        # every case whose input does not depend on the seed.
        "stream-small": "0e4f2a28605bd9fb321d2cc92698db7632d67fbdc0f8ab5f46e409be05192b2b",
        "stream-mid": "5bec90cf886c0cfffaa0287e1b0eccf2d83f89659d5028a0a4c68548e5c7b9a2",
        "stream-large": "384b41324e7a99268de3fd4e6f776ce5fb78874aaed882c4663fa2fa290f447a",
        "gemm-small": "6827c1bce22495d53e63704e080345f4bf6edd3721472aaca3e3c3e08ac8a778",
        "gemm-mid": "685cf81b1ee1ff9a9feaea0715b723e2e603b6a6c76493e9c636914621f81488",
        "gemm-large": "4c704954ebed8b5b46f2c5127af3de4ed1b1ccd546ba94dbb67ee2341c124135",
        "cholesky-small": "4728c3c26efc32647d40c7f22722b039e779a0cc2af3ef3f5ceb8565673cc454",
        "cholesky-mid": "4b2283808944347053fdea155eed64f7c22f22dc71dec73918d04e3609563839",
        "cholesky-large": "e7d3fa72819cbc7c9a118960903ef8a84bbfae90f487924dbc38d76d40dc98a0",
        "fft-small": "5c7af89f0431077631217bdc3f0ff2fe7b95d67698ae258bb10d688f5e3a30f3",
        "fft-mid": "5d3821b4ec03068fb2cb7daf7530756a27bec24a79366492681a79c83f99b339",
        "fft-large": "92548e7f1d97910bd730bccc91fa61751ed1a248aa219f7b81c451435a8b689b",
        "stencil-small": "60e98091fb3b0a5c327bfba9910e36db2485b3fc15abdc2859a880e5e2575f38",
        "stencil-mid": "3421623e84e6fd8213c63be49e9abb2a86ae3ae87b00b056be314a9813443121",
        "stencil-large": "dfe28733e18b65aa34655eeca1003eb134e06d77ef8becad6e831ce1e1df41d5",
    },
}
