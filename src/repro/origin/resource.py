"""Resources served by the simulated origin."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.errors import ResourceNotFoundError
from repro.http.body import Body, make_body

#: Largest resource the CLI and the analysis service accept (1 GiB).
MAX_RESOURCE_SIZE = 1 << 30

#: Content types guessed from path suffixes (enough for the experiments).
_SUFFIX_TYPES = {
    ".jpg": "image/jpeg",
    ".jpeg": "image/jpeg",
    ".png": "image/png",
    ".gif": "image/gif",
    ".html": "text/html",
    ".txt": "text/plain",
    ".css": "text/css",
    ".js": "application/javascript",
    ".json": "application/json",
    ".mp4": "video/mp4",
    ".bin": "application/octet-stream",
    ".zip": "application/zip",
}


def guess_content_type(path: str) -> str:
    """Guess a content type from the path suffix (octet-stream fallback)."""
    lowered = path.lower()
    for suffix, content_type in _SUFFIX_TYPES.items():
        if lowered.endswith(suffix):
            return content_type
    return "application/octet-stream"


@dataclass
class Resource:
    """A single origin resource.

    ``body`` accepts anything :func:`repro.http.body.make_body` does — in
    particular a plain ``int`` for an n-byte synthetic payload, which is
    how the multi-megabyte SBR targets are declared.
    """

    path: str
    body: Union[Body, bytes, str, int]
    content_type: Optional[str] = None
    last_modified: str = "Fri, 05 Jun 2020 07:30:00 GMT"
    #: Optional Cache-Control the origin emits for this resource — a
    #: malicious customer sets ``no-store`` to keep every request going
    #: back to origin without any query-string busting (paper §II-A).
    cache_control: Optional[str] = None
    #: Pre-compressed variants the origin can negotiate: coding name →
    #: compressed size in bytes (the CCFC attacker hosts highly
    #: compressible payloads, arXiv 2409.00712 §III).  ``None`` means the
    #: resource exists only as its identity representation.
    encodings: Optional[Dict[str, int]] = None
    _materialized_body: Body = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.path.startswith("/"):
            raise ValueError(f"resource path must start with '/', got {self.path!r}")
        self._materialized_body = make_body(self.body)
        if self.content_type is None:
            self.content_type = guess_content_type(self.path)

    @property
    def content(self) -> Body:
        return self._materialized_body

    @property
    def size(self) -> int:
        return len(self._materialized_body)

    @property
    def etag(self) -> str:
        """A deterministic strong ETag derived from path and size.

        Apache derives its ETag from inode/size/mtime; ours hashes the
        identity instead so equal declarations produce equal tags.
        """
        digest = hashlib.sha1(
            f"{self.path}:{self.size}:{self.last_modified}".encode()
        ).hexdigest()
        return f'"{digest[:16]}"'


class ResourceStore:
    """Path-keyed collection of resources."""

    def __init__(self) -> None:
        self._resources: Dict[str, Resource] = {}

    def add(self, resource: Resource) -> Resource:
        """Register ``resource`` (replacing any same-path entry)."""
        self._resources[resource.path] = resource
        return resource

    def add_synthetic(self, path: str, size: int, content_type: Optional[str] = None) -> Resource:
        """Shorthand for registering an n-byte synthetic resource."""
        return self.add(Resource(path=path, body=size, content_type=content_type))

    def get(self, path: str) -> Resource:
        """Look up by exact path; raises :class:`ResourceNotFoundError`."""
        try:
            return self._resources[path]
        except KeyError:
            raise ResourceNotFoundError(path) from None

    def __contains__(self, path: object) -> bool:
        return path in self._resources

    def __len__(self) -> int:
        return len(self._resources)

    def paths(self) -> List[str]:
        return sorted(self._resources)
