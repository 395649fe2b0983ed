"""Fresh-interpreter probes, started by run.py.

    python3 probe.py SRC_DIR CORPUS_DIR
    python3 probe.py SRC_DIR CORPUS_DIR UTT_ID LOSS_UTT_ID

Both forms import hanjoint from SRC_DIR, load both vocabularies of
CORPUS_DIR and warm the kernels: everything a process needs before it can
decode its first utterance.  They print the wall-clock time
(``time.time()``) at which the process became ready, so the parent can
subtract the moment it started the probe.

The second form then joint-decodes utterance UTT_ID and computes the
multi-task loss with gradients of LOSS_UTT_ID ("-" for none), in this one
thread, and prints the process's peak RSS in KiB.  One thread makes the
peak independent of how worker threads happen to overlap.
"""

import resource
import sys
import time

sys.path.insert(0, sys.argv[1])

import hanjoint  # noqa: E402
from hanjoint import _kernels  # noqa: E402

corpus = sys.argv[2]
syll_vocab = hanjoint.Vocabulary.load(f"{corpus}/syllable.vocab")
grap_vocab = hanjoint.Vocabulary.load(f"{corpus}/grapheme.vocab")
_kernels.warmup()
print(repr(time.time()), flush=True)

if len(sys.argv) > 3:
    def lattices(utt):
        return [hanjoint.load_lattice(f"{corpus}/{utt}.{level}.lat") for level in ("syll", "grap")]

    utt, loss_utt = sys.argv[3], sys.argv[4]
    syll, grap = (x if x.normalized else hanjoint.normalize(x) for x in lattices(utt))
    config = hanjoint.JointConfig(gamma=0.5, beam=hanjoint.BeamConfig(beam_width=100))
    hanjoint.joint_decode(syll, grap, syll_vocab, grap_vocab, config)
    if loss_utt != "-":
        refs = dict(line.split("\t", 1) for line in open(f"{corpus}/refs.tsv", encoding="utf-8").read().splitlines())
        hanjoint.multitask_loss(*lattices(loss_utt), refs[loss_utt], syll_vocab, grap_vocab,
                                hanjoint.MultiTaskLossConfig(0.5), with_grad=True)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
