"""Distribution-independent array-section streaming (paper Section 3.2).

Streaming moves the elements of a distributed-array section in or out of
an application in a canonical linear order (FORTRAN column-major or C
row-major) that depends only on the section — never on the distribution.
That property is what makes DRMS checkpoints restartable on a different
number of tasks.

* :mod:`repro.streaming.partition` — the recursive lo/hi partition of a
  slice into stream-order-contiguous pieces (paper Fig. 5a);
* :mod:`repro.streaming.parallel` — ``parstream`` (paper Fig. 5b), the
  one streaming engine: redistribute each piece to a canonical owner,
  then P tasks write their pieces at computed stream offsets.  ``P > 1``
  needs a seekable sink; ``P = 1`` is serial streaming, whose in-order
  writes also run over non-seekable channels (sockets, tape);
* :mod:`repro.streaming.serial` — what every stream operation shares:
  its accounting (``StreamStats``), stored-stream sources, piece
  gather/scatter and the gather strictness scope.
"""

from repro.streaming.order import stream_order_bytes, section_stream_positions
from repro.streaming.partition import partition, partition_for_target, piece_offsets
from repro.streaming.streams import ByteSink, ByteSource, MemorySink, MemorySource
from repro.streaming.serial import strict_gather
from repro.streaming.parallel import stream_out_parallel, stream_in_parallel

__all__ = [
    "stream_order_bytes",
    "section_stream_positions",
    "partition",
    "partition_for_target",
    "piece_offsets",
    "ByteSink",
    "ByteSource",
    "MemorySink",
    "MemorySource",
    "strict_gather",
    "stream_out_parallel",
    "stream_in_parallel",
]
