"""Desk-scale simulator of two-way secure direct messaging over EPR pair blocks.

The package splits along the protocol's own seams: qsim holds the exact
two-qubit quantum substrate, codec the bit/operation coding rules, session
the two-party protocol engine and transcripts, records the transcript's
records, their JSONL lines and the custody rules, adversary the channel
attacks and their estimators, and cli the experiment runner.  The top level
exports the five names of a library run; every other name is imported from
its own module.
"""

__version__ = "0.1.0"

from .adversary import eve_information
from .codec import pack_bits
from .session import ProtocolConfig, Transcript, run_protocol
