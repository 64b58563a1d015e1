"""The reference HTTP server every query timing is divided by.

Same transport as the daemon under test (``asyncio.start_server``,
HTTP/1.1 keep-alive, one JSON body per GET) and the same naive request
handling (``parse_qs``, build dicts, ``json.dumps``), but no snapshot
behind it: what remains is the cost of a loopback round trip plus
parse and serialise on this machine right now.  Standard library only;
frozen like ``reference.py``.

    GET /ref/point?block=N   one point-answer-shaped dict
    GET /ref/rows?n=K        K row dicts, range-answer-shaped

Run as a script it binds an ephemeral port, prints it on one line and
serves until SIGTERM or until its standard input closes (so it does
not outlive a benchmark process that was killed).
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from urllib.parse import parse_qs, urlsplit


def point_answer(block: int) -> dict:
    return {
        "prefix": f"{block >> 16 & 255}.{block >> 8 & 255}.{block & 255}.0/24",
        "block": block,
        "verdict": "unknown",
        "dark": False,
        "confidence": round(block % 7 / 7.0, 6),
        "since_day": None,
        "asn": None,
        "country": None,
        "snapshot_version": 1,
        "snapshot_day": 0,
    }


def rows_answer(count: int) -> dict:
    rows = [point_answer(block) for block in range(count)]
    return {
        "total": count,
        "truncated": False,
        "rows": rows,
        "snapshot_version": 1,
    }


def respond(target: str) -> tuple[int, dict]:
    split = urlsplit(target)
    params = parse_qs(split.query)
    try:
        if split.path == "/ref/point":
            return 200, point_answer(int(params["block"][0]))
        if split.path == "/ref/rows":
            return 200, rows_answer(int(params["n"][0]))
    except (KeyError, ValueError) as error:
        return 400, {"error": str(error)}
    return 404, {"error": f"no such endpoint: {split.path}"}


async def handle(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    try:
        while True:
            request_line = await reader.readline()
            if not request_line:
                break
            while True:  # drain headers; GET carries no body
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            status, body = (
                respond(parts[1]) if len(parts) == 3 and parts[0] == "GET"
                else (400, {"error": "malformed request"})
            )
            payload = json.dumps(body).encode()
            writer.write(
                (
                    f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: keep-alive\r\n\r\n"
                ).encode()
                + payload
            )
            await writer.drain()
    except (ConnectionResetError, asyncio.IncompleteReadError):
        pass
    finally:
        writer.close()


async def serve(host: str = "127.0.0.1") -> None:
    stopping = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stopping.set)
    loop.add_signal_handler(signal.SIGINT, stopping.set)
    loop.add_reader(sys.stdin.fileno(), stopping.set)
    server = await asyncio.start_server(handle, host, 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    await stopping.wait()
    server.close()
    await server.wait_closed()


if __name__ == "__main__":
    asyncio.run(serve())
    sys.exit(0)
