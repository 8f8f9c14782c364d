"""Multimodal (image/audio) column plumbing.

Media ride as opaque ``binary`` columns with typed metadata, processed
by actor-pool ``map_batches`` stages sized for large payloads (small
``batch_size``, fractional CPU). The decoders are real, for the
container-friendly formats: uncompressed BMP (pure struct/NumPy over
the DIB layout), PNG (stdlib ``zlib`` inflate + NumPy scanline
unfiltering — 8-bit gray/RGB/RGBA, all five filter types,
non-interlaced; see :func:`decode_png`), and PCM WAV (stdlib
``wave``). The remaining compressed formats (jpeg/mp3,
palette/interlaced/16-bit PNG) need external codecs and raise
``NotImplementedError`` with the exact library to install.

``make_bmp`` / ``make_wav`` encode NumPy arrays into real files for
fixtures, so the real path is round-trip-tested in-sandbox.
"""

from __future__ import annotations

import struct
import wave as _wave
import io

import numpy as np
import pyarrow as pa


def make_bmp(gray: np.ndarray) -> bytes:
    """Encode an (h, w) uint8 grayscale array as an 8-bit uncompressed
    BMP (BITMAPINFOHEADER + 256-entry gray palette, bottom-up rows)."""
    h, w = gray.shape
    stride = (w + 3) & ~3
    rows = np.zeros((h, stride), dtype=np.uint8)
    rows[:, :w] = gray
    pix = rows[::-1].tobytes()  # bottom-up
    palette = b"".join(bytes([i, i, i, 0]) for i in range(256))
    data_off = 14 + 40 + len(palette)
    header = (b"BM" + struct.pack("<IHHI", data_off + len(pix), 0, 0, data_off)
              + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 8, 0, len(pix),
                            2835, 2835, 256, 0))
    return header + palette + pix


def decode_bmp(payload: bytes) -> np.ndarray:
    """Decode an uncompressed 8-bit-gray or 24-bit BMP to (h, w) uint8
    grayscale (24-bit channels averaged)."""
    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    data_off = struct.unpack_from("<I", payload, 10)[0]
    w, h_signed = struct.unpack_from("<ii", payload, 18)
    bpp = struct.unpack_from("<H", payload, 28)[0]
    comp = struct.unpack_from("<I", payload, 30)[0]
    if comp != 0 or bpp not in (8, 24):
        raise NotImplementedError(
            f"BMP bpp={bpp} compression={comp}: only uncompressed "
            "8/24-bit supported (compressed images need Pillow)")
    h = abs(h_signed)
    stride = ((w * bpp // 8) + 3) & ~3
    arr = np.frombuffer(payload, np.uint8, count=stride * h,
                        offset=data_off).reshape(h, stride)
    if bpp == 24:
        gray = arr[:, :w * 3].reshape(h, w, 3).mean(axis=2).astype(np.uint8)
    else:
        gray = arr[:, :w]
    return gray[::-1] if h_signed > 0 else gray


# ---------------------------------------------------------------------------
# PNG (public spec: RFC 2083 / W3C PNG). Pure stdlib-zlib + NumPy —
# enough for the 8-bit gray/RGB/RGBA images a training-data pipeline's
# thumbnails/fixtures use; palette, interlace and 16-bit raise with the
# codec to install. Encoder exists so the decoder is round-trip-tested
# in-sandbox across every filter type.
# ---------------------------------------------------------------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_PNG_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}  # color type -> samples/pixel


def _png_chunk(ctype: bytes, data: bytes) -> bytes:
    import binascii

    return (struct.pack(">I", len(data)) + ctype + data
            + struct.pack(">I", binascii.crc32(ctype + data) & 0xFFFFFFFF))


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Paeth predictor, vectorized (int16 math, uint8 result)."""
    a = a.astype(np.int16)
    b = b.astype(np.int16)
    c = c.astype(np.int16)
    p = a + b - c
    pa_ = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    out = np.where((pa_ <= pb) & (pa_ <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def make_png(img: np.ndarray, filter_type: int = 0) -> bytes:
    """Encode a uint8 array as a non-interlaced 8-bit PNG: (h, w) ->
    grayscale, (h, w, 3) -> RGB, (h, w, 4) -> RGBA. ``filter_type``
    (0-4) applies that PNG scanline filter to EVERY row — used by the
    round-trip tests to exercise each of the decoder's unfilter
    paths."""
    import zlib

    if img.ndim == 2:
        color, ch = 0, 1
        img = img[:, :, None]
    elif img.shape[2] == 3:
        color, ch = 2, 3
    elif img.shape[2] == 4:
        color, ch = 6, 4
    else:
        raise ValueError(f"unsupported channel count {img.shape[2]}")
    h, w, _ = img.shape
    raw = img.reshape(h, w * ch).astype(np.uint8)
    prev = np.zeros(w * ch, np.uint8)
    lines = []
    for y in range(h):
        cur = raw[y]
        left = np.concatenate([np.zeros(ch, np.uint8), cur[:-ch]])
        ul = np.concatenate([np.zeros(ch, np.uint8), prev[:-ch]])
        if filter_type == 0:
            filt = cur
        elif filter_type == 1:
            filt = cur - left
        elif filter_type == 2:
            filt = cur - prev
        elif filter_type == 3:
            filt = cur - ((left.astype(np.int16) + prev) // 2).astype(np.uint8)
        elif filter_type == 4:
            filt = cur - _paeth(left, prev, ul)
        else:
            raise ValueError(f"filter_type {filter_type}")
        lines.append(bytes([filter_type]) + filt.tobytes())
        prev = cur
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(b"".join(lines)))
            + _png_chunk(b"IEND", b""))


def decode_png(payload: bytes, keep_channels: bool = False) -> np.ndarray:
    """Decode a non-interlaced 8-bit gray/RGB/RGBA PNG to (h, w) uint8
    grayscale (color channels averaged, alpha dropped — the same
    convention as :func:`decode_bmp`). ``keep_channels=True`` instead
    returns the stored layout — (h, w) gray, (h, w, 3) RGB,
    (h, w, 4) RGBA (gray+alpha still drops alpha: there is no 2-channel
    re-encode) — for transforms that must preserve color
    (:class:`ImageResize`). Scanline unfiltering is NumPy
    per row: None/Up/Sub fully vectorized (Sub is a per-lane cumsum);
    Average/Paeth walk pixels within the row (their predictor needs the
    just-reconstructed left neighbor) but stay vectorized across
    channels. Palette (type 3), interlaced, and 16-bit PNGs raise
    ``NotImplementedError`` naming the codec to install."""
    import zlib

    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG payload")
    pos = 8
    ihdr = None
    idat = []
    while pos + 8 <= len(payload):
        ln, ctype = struct.unpack_from(">I4s", payload, pos)
        data = payload[pos + 8:pos + 8 + ln]
        pos += 12 + ln
        if ctype == b"IHDR":
            ihdr = struct.unpack(">IIBBBBB", data)
        elif ctype == b"IDAT":
            idat.append(data)
        elif ctype == b"IEND":
            break
    if ihdr is None or not idat:
        raise ValueError("PNG missing IHDR/IDAT")
    w, h, depth, color, comp, filt_m, interlace = ihdr
    if depth != 8:
        raise NotImplementedError(
            f"PNG bit depth {depth}: only 8-bit supported (use Pillow)")
    if color == 3:
        raise NotImplementedError(
            "palette PNG: indexed color needs Pillow")
    if color not in _PNG_CHANNELS or comp != 0 or filt_m != 0:
        raise NotImplementedError(f"PNG color={color} comp={comp}: use Pillow")
    if interlace != 0:
        raise NotImplementedError("interlaced (Adam7) PNG: use Pillow")
    ch = _PNG_CHANNELS[color]
    stride = w * ch
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), np.uint8)
    if len(raw) != h * (stride + 1):
        raise ValueError("PNG scanline payload size mismatch")
    raw = raw.reshape(h, stride + 1)
    ftypes = raw[:, 0]
    rows = raw[:, 1:]
    out = np.zeros((h, stride), np.uint8)
    prev = np.zeros(stride, np.int64)
    for y in range(h):
        cur = rows[y].astype(np.int64)
        f = int(ftypes[y])
        if f == 0:
            rec = cur
        elif f == 1:
            # recon[x] = cur[x] + recon[x-ch]: per-lane prefix sum
            rec = cur.reshape(-1, ch).cumsum(axis=0).reshape(-1)
        elif f == 2:
            rec = cur + prev
        elif f in (3, 4):
            rec = np.empty(stride, np.int64)
            left = np.zeros(ch, np.int64)
            for x in range(0, stride, ch):
                up = prev[x:x + ch]
                ul = prev[x - ch:x] if x else np.zeros(ch, np.int64)
                pred = ((left + up) // 2 if f == 3 else
                        _paeth(left.astype(np.uint8), up.astype(np.uint8),
                               ul.astype(np.uint8)).astype(np.int64))
                left = (cur[x:x + ch] + pred) & 0xFF
                rec[x:x + ch] = left
        else:
            raise ValueError(f"PNG filter type {f}")
        prev = rec & 0xFF
        out[y] = prev.astype(np.uint8)
    px = out.reshape(h, w, ch)
    if color == 0:
        return px[:, :, 0]
    if color == 4:                      # gray + alpha: drop alpha
        return px[:, :, 0]
    if keep_channels:
        return px
    return px[:, :, :3].mean(axis=2).astype(np.uint8)


def make_wav(samples: np.ndarray, sample_rate: int = 16000) -> bytes:
    """Encode float64 samples in [-1, 1] as 16-bit PCM WAV."""
    buf = io.BytesIO()
    with _wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sample_rate)
        w.writeframes(np.clip(samples * 32767.0, -32768, 32767)
                      .astype("<i2").tobytes())
    return buf.getvalue()


def decode_wav(payload: bytes) -> tuple[np.ndarray, int]:
    """Decode 16-bit PCM WAV -> (float64 samples in [-1, 1], rate);
    multichannel is averaged to mono."""
    with _wave.open(io.BytesIO(payload), "rb") as w:
        if w.getsampwidth() != 2:
            raise NotImplementedError(
                f"WAV sampwidth={w.getsampwidth()}: only 16-bit PCM "
                "supported (other encodings need libsndfile)")
        rate = w.getframerate()
        nch = w.getnchannels()
        raw = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
    samples = raw.astype(np.float64) / 32768.0
    if nch > 1:
        samples = samples.reshape(-1, nch).mean(axis=1)
    return samples, rate

IMAGE_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("image", pa.binary()),
    ("mime", pa.string()),
    ("width", pa.int32()),
    ("height", pa.int32()),
])

AUDIO_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("audio", pa.binary()),
    ("mime", pa.string()),
    ("sample_rate", pa.int32()),
    ("n_samples", pa.int64()),
])


def _decode_image(payload: bytes, keep_channels: bool) -> np.ndarray:
    """Decode an uncompressed BMP or 8-bit gray/RGB/RGBA PNG; any other
    codec raises ``NotImplementedError`` naming what it needs."""
    if payload[:2] == b"BM":
        return decode_bmp(payload)
    if payload[:8] == _PNG_SIG:
        return decode_png(payload, keep_channels=keep_channels)
    raise NotImplementedError(
        "image decode supports uncompressed BMP and 8-bit "
        "gray/RGB/RGBA PNG in this container; jpeg needs Pillow")


class ImageFeatures:
    """Actor-pool stage: image binary -> 16-bin pixel histogram feature
    vector + pixel mean. Use small batch_size (payloads are big):
        ds.map_batches(ImageFeatures, batch_size=32,
                       concurrency=(1, 8), num_cpus=0.5)
    """

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["image"].to_pylist()
        feats = np.zeros((batch.num_rows, 16), dtype=np.float64)
        means = np.zeros(batch.num_rows)
        for i, p in enumerate(payloads):
            if p is None:
                continue
            px = _decode_image(p, keep_channels=False)
            means[i] = float(px.mean())
            hist, _ = np.histogram(px, bins=16, range=(0, 256))
            feats[i] = hist / max(px.size, 1)
        keep = [c for c in batch.column_names if c != "image"]
        out = batch.select(keep)  # drop the heavy payload ASAP
        out = out.append_column("pixel_mean", pa.array(means, pa.float64()))
        out = out.append_column(
            "features", pa.FixedSizeListArray.from_arrays(
                pa.array(feats.ravel(), pa.float64()), 16))
        return out


class AudioFrameSample:
    """Actor-pool stage: audio binary -> 8 sampled 'frame' energies.
    Decodes 16-bit PCM WAV; other codecs raise ``NotImplementedError``."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["audio"].to_pylist()
        energies = np.zeros((batch.num_rows, 8), dtype=np.float64)
        for i, p in enumerate(payloads):
            if p is None:
                continue
            if p[:4] != b"RIFF":
                raise NotImplementedError(
                    "audio decode supports 16-bit PCM WAV only in this "
                    "container; mp3/ogg need ffmpeg/libsndfile")
            frames = np.array_split(decode_wav(p)[0], 8)
            energies[i] = [float((f * f).mean()) if len(f) else 0.0
                           for f in frames]
        keep = [c for c in batch.column_names if c != "audio"]
        out = batch.select(keep)
        out = out.append_column(
            "frame_energy", pa.FixedSizeListArray.from_arrays(
                pa.array(energies.ravel(), pa.float64()), 8))
        return out


def resize_bilinear(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Vectorized bilinear resize with half-pixel centers and edge
    clamp (the OpenCV/PIL ``align_corners=False`` convention) — pure
    NumPy gather + two lerps, no Python pixel loops. Accepts (h, w) or
    (h, w, c) uint8; returns the same layout at (out_h, out_w)."""
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"resize_bilinear: bad target {out_h}x{out_w}")
    h, w = img.shape[:2]
    squeeze = img.ndim == 2
    src = img[:, :, None].astype(np.float64) if squeeze \
        else img.astype(np.float64)
    ys = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    y0f, x0f = np.floor(ys), np.floor(xs)
    fy = (ys - y0f)[:, None, None]
    fx = (xs - x0f)[None, :, None]
    y0 = np.clip(y0f.astype(np.int64), 0, h - 1)
    y1 = np.clip(y0f.astype(np.int64) + 1, 0, h - 1)
    x0 = np.clip(x0f.astype(np.int64), 0, w - 1)
    x1 = np.clip(x0f.astype(np.int64) + 1, 0, w - 1)
    r0, r1 = src[y0], src[y1]          # hoist the two row gathers
    top = r0[:, x0] * (1 - fx) + r0[:, x1] * fx
    bot = r1[:, x0] * (1 - fx) + r1[:, x1] * fx
    out = top * (1 - fy) + bot * fy
    out = np.clip(np.rint(out), 0, 255).astype(np.uint8)
    return out[:, :, 0] if squeeze else out


class ImageResize:
    """Actor-pool stage: image binary -> resized image binary (the
    standard pre-training normalization step — every image to one
    resolution before feature extraction / packing). Decode and
    re-encode are REAL for the codecs this container can verify
    (uncompressed BMP, 8-bit gray/RGB/RGBA PNG); the resample kernel
    is :func:`resize_bilinear` (vectorized, no pixel loops). Output
    replaces the payload column with the re-encoded image and rewrites
    width/height — downstream stages (:class:`ImageFeatures`) consume
    it unchanged.

    Use small batches (payloads are big):
        ds.map_batches(ImageResize(64, 64), batch_size=32,
                       concurrency=(1, 8), num_cpus=0.5)
    """

    def __init__(self, out_h: int, out_w: int):
        self.out_h, self.out_w = out_h, out_w

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["image"].to_pylist()
        widths = batch["width"].to_pylist()
        heights = batch["height"].to_pylist()
        out_payloads: list[bytes | None] = []
        for p in payloads:
            if p is None:
                out_payloads.append(None)
                continue
            px = resize_bilinear(_decode_image(p, keep_channels=True),
                                 self.out_h, self.out_w)
            out_payloads.append(make_png(px))
        out = batch.set_column(batch.column_names.index("image"), "image",
                               pa.array(out_payloads, pa.binary()))
        # null-payload rows keep their ORIGINAL metadata — claiming the
        # target dims for an image that doesn't exist would mislabel it
        present = [p is not None for p in out_payloads]
        new_w = [self.out_w if ok else w
                 for ok, w in zip(present, widths)]
        new_h = [self.out_h if ok else h
                 for ok, h in zip(present, heights)]
        out = out.set_column(out.column_names.index("width"), "width",
                             pa.array(new_w, pa.int64()))
        return out.set_column(out.column_names.index("height"), "height",
                              pa.array(new_h, pa.int64()))
