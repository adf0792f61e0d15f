"""Connection B of ``serve_read``: one ``check`` in flight at a time.

    python3 perfbench/rtt_probe.py HOST PORT OPENS CLOSES PAIRS_JSON

Runs in its own process and polls its socket without sleeping, so a
round trip is the server's answer time: not a wait for the page
generator's event loop, nor for the VM to wake this process up.  Sends
until ``CLOSES`` (a ``time.monotonic()`` reading), records the round
trips of the checks sent inside ``[OPENS, CLOSES)`` and prints them as
one JSON object.
"""

import json
import socket
import sys
import time

from serve import _LENGTH, check_tail, frame


def main() -> int:
    host, port = sys.argv[1], int(sys.argv[2])
    opens, closes = float(sys.argv[3]), float(sys.argv[4])
    with open(sys.argv[5]) as handle:
        pairs = json.load(handle)
    requests = [(frame({"id": 0, "op": "check", "u": u, "v": v}),
                 check_tail(0, want)) for u, v, want in pairs]
    rtts = []
    sent = wrong = 0
    with socket.create_connection((host, port)) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        buffer = b""
        while True:
            started = time.monotonic()
            if started >= closes:
                break
            request, tail = requests[sent % len(requests)]
            sock.send(request)
            while len(buffer) < 4 or len(buffer) < 4 + _LENGTH.unpack_from(buffer)[0]:
                try:
                    chunk = sock.recv(65536)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise ConnectionError("server closed the connection")
                buffer += chunk
            finished = time.monotonic()
            end = 4 + _LENGTH.unpack_from(buffer)[0]
            body, buffer = buffer[4:end], buffer[end:]
            sent += 1
            wrong += not body.endswith(tail)
            if started >= opens:
                rtts.append(finished - started)
    print(json.dumps({"rtts": rtts, "sent": sent, "wrong": wrong}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
