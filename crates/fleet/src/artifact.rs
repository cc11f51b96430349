//! Packed OTA model artifacts: a graph plus its explicit weights,
//! serialized into hash-chained chunks sized for lossy links.
//!
//! The textual graph format deliberately excludes explicit weights (it
//! exchanges architectures, like ONNX without initializers), so an OTA
//! image needs its own container: the architecture dump with weights
//! swapped for seeded placeholders, followed by a binary weight section
//! keyed by node index. [`unpack`](ModelArtifact::unpack) runs the
//! static verifier over the parsed architecture, recovers each weighted
//! node's tensor shapes from it, and fills them with the stored floats —
//! shape agreement is structural, never trusted from the wire.
//!
//! Integrity is per chunk *and* end-to-end: every chunk carries a
//! SHA-256 in the [`Manifest`], and the manifest root chains those
//! hashes in order, so a device can reject a corrupted chunk the moment
//! it arrives (and re-request just that chunk) while still proving the
//! chunks together are exactly the released image. `unpack` verifies
//! every chunk (four side by side in SIMD lanes, see [`sha256_each`]: a
//! release's equal chunks and its shorter last one share passes) before
//! it reads a byte, then reads the fields in place across the verified
//! chunks: the payload is never assembled. Weight
//! records must name their nodes in ascending order, as `pack` writes
//! them, so no node is filled twice.

use std::borrow::Cow;
use vedliot_nnir::analysis;
use vedliot_nnir::graph::{Graph, WeightInit};
use vedliot_nnir::shape::Shape;
use vedliot_nnir::tensor::Tensor;
use vedliot_nnir::textual;
use vedliot_nnir::NnirError;
use vedliot_trust::hash::{sha256, sha256_each};

/// Container magic: VEDLIoT OTA, format 1.
const MAGIC: &[u8; 6] = b"VOTA1\n";

/// Errors from packing, unpacking, or verifying an artifact.
#[derive(Debug)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The graph could not be serialized or parsed in textual form.
    Text(textual::TextFormatError),
    /// Graph-level failure (weight materialization, tensor rebuild).
    Graph(NnirError),
    /// The payload violates the container format.
    Malformed(String),
    /// A chunk's hash does not match the manifest.
    ChunkHashMismatch {
        /// Index of the offending chunk.
        index: u32,
    },
    /// A chunk's index is not its position in the payload: the chunks
    /// were reordered or one was duplicated.
    ChunkOutOfOrder {
        /// Where the chunk sits in the payload.
        position: u32,
        /// The index the chunk carries.
        index: u32,
    },
    /// The chained root over all chunks does not match the manifest.
    RootMismatch,
    /// The version string contains a newline (the header is line-based).
    BadVersionName,
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Text(e) => write!(f, "artifact text section: {e}"),
            ArtifactError::Graph(e) => write!(f, "artifact graph: {e}"),
            ArtifactError::Malformed(why) => write!(f, "malformed artifact: {why}"),
            ArtifactError::ChunkHashMismatch { index } => {
                write!(f, "chunk {index} failed its hash check")
            }
            ArtifactError::ChunkOutOfOrder { position, index } => {
                write!(f, "chunk at position {position} carries index {index}")
            }
            ArtifactError::RootMismatch => write!(f, "assembled payload root mismatch"),
            ArtifactError::BadVersionName => write!(f, "version string must not contain newlines"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<textual::TextFormatError> for ArtifactError {
    fn from(e: textual::TextFormatError) -> Self {
        ArtifactError::Text(e)
    }
}

impl From<NnirError> for ArtifactError {
    fn from(e: NnirError) -> Self {
        ArtifactError::Graph(e)
    }
}

/// The signed-off description of a release: per-chunk hashes plus a
/// chained root. Delivered to devices over the attested control channel
/// (out of band of the bulk chunk transfer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Human-readable version label (`"v2"`, `"resnet8-int8-r3"`, ...).
    pub version: String,
    /// Total payload size in bytes.
    pub payload_bytes: usize,
    /// SHA-256 of each chunk, in order.
    pub chunk_hashes: Vec<[u8; 32]>,
    /// Hash chain over `chunk_hashes` in order — the release identity.
    pub root: [u8; 32],
}

impl Manifest {
    /// Number of chunks in the release.
    #[must_use]
    pub fn chunk_count(&self) -> u32 {
        u32::try_from(self.chunk_hashes.len()).unwrap_or(u32::MAX)
    }

    /// Folds the per-chunk hashes into the chained root:
    /// `root_i = sha256(root_{i-1} || h_i)`, seeded from the version
    /// label so two releases with identical bytes still differ.
    #[must_use]
    pub fn chain_root(version: &str, chunk_hashes: &[[u8; 32]]) -> [u8; 32] {
        let mut acc = sha256(version.as_bytes());
        for h in chunk_hashes {
            let mut buf = [0u8; 64];
            buf[..32].copy_from_slice(&acc);
            buf[32..].copy_from_slice(h);
            acc = sha256(&buf);
        }
        acc
    }
}

/// One transfer unit of the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Position in the payload.
    pub index: u32,
    /// Raw bytes (last chunk may be short).
    pub payload: Vec<u8>,
}

impl Chunk {
    /// Verifies this chunk against the manifest entry for its index.
    #[must_use]
    pub fn verify(&self, manifest: &Manifest) -> bool {
        manifest
            .chunk_hashes
            .get(self.index as usize)
            .is_some_and(|expected| &sha256(&self.payload) == expected)
    }
}

/// A packed release: manifest plus chunked payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelArtifact {
    /// Release manifest.
    pub manifest: Manifest,
    /// Payload chunks, in order.
    pub chunks: Vec<Chunk>,
}

impl ModelArtifact {
    /// Packs a graph (explicit weights and all) into a chunked,
    /// hash-chained artifact.
    ///
    /// The payload is the header (magic, version line), the length-
    /// prefixed architecture text with every explicit weight written as
    /// the placeholder `seed=0`, then one record per node with explicit
    /// weights, keyed by node index, each tensor a length-prefixed run
    /// of little-endian f32s. It is written straight into the chunks,
    /// each allocated once at its final size: neither the graph nor a
    /// tensor is copied, and no payload buffer is assembled.
    ///
    /// # Errors
    ///
    /// Fails if the version label is multi-line, if the architecture
    /// cannot be serialized, or `chunk_bytes` is zero.
    pub fn pack(version: &str, graph: &Graph, chunk_bytes: usize) -> Result<Self, ArtifactError> {
        if version.contains('\n') {
            return Err(ArtifactError::BadVersionName);
        }
        if chunk_bytes == 0 {
            return Err(ArtifactError::Malformed("chunk_bytes must be > 0".into()));
        }
        let text = textual::write_architecture(graph)?;
        let records = graph
            .nodes()
            .iter()
            .enumerate()
            .filter_map(|(idx, node)| match &node.weights {
                WeightInit::Explicit(tensors) => Some((idx, tensors.as_slice())),
                _ => None,
            })
            .map(|(idx, tensors)| {
                u32::try_from(idx)
                    .map(|idx| (idx, tensors))
                    .map_err(|_| ArtifactError::Malformed("node index overflow".into()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let record_bytes = |tensors: &[Tensor]| {
            8 + tensors
                .iter()
                .map(|t| 8 + 4 * t.data().len())
                .sum::<usize>()
        };
        let payload_bytes = MAGIC.len()
            + version.len()
            + 1
            + 8
            + text.len()
            + 4
            + records.iter().map(|(_, t)| record_bytes(t)).sum::<usize>();

        let mut w = ChunkWriter::new(payload_bytes, chunk_bytes);
        w.put(MAGIC);
        w.put(version.as_bytes());
        w.put(b"\n");
        w.put(&(text.len() as u64).to_le_bytes());
        w.put(text.as_bytes());
        w.put(&(records.len() as u32).to_le_bytes());
        for (idx, tensors) in &records {
            w.put(&idx.to_le_bytes());
            w.put(&(tensors.len() as u32).to_le_bytes());
            for t in *tensors {
                w.put(&(t.data().len() as u64).to_le_bytes());
                for v in t.data() {
                    w.put(&v.to_le_bytes());
                }
            }
        }
        debug_assert_eq!(w.left, 0, "payload size miscounted");
        Ok(Self::from_chunks(version, w.chunks, payload_bytes))
    }

    /// Hash-chains `chunks`, `payload_bytes` in all, under `version`.
    fn from_chunks(version: &str, chunks: Vec<Chunk>, payload_bytes: usize) -> Self {
        let chunk_hashes = hash_chunks(&chunks);
        let root = Manifest::chain_root(version, &chunk_hashes);
        ModelArtifact {
            manifest: Manifest {
                version: version.to_string(),
                payload_bytes,
                chunk_hashes,
                root,
            },
            chunks,
        }
    }

    /// Total payload size in bytes.
    #[must_use]
    pub fn payload_bytes(&self) -> usize {
        self.manifest.payload_bytes
    }

    /// Verifies every chunk in payload order, and the chained root: the
    /// install-time check. Each chunk must carry its own position as its
    /// index and hash to the manifest entry there, since
    /// [`unpack`](Self::unpack) reads the chunks in the order they are
    /// held; the root proves the manifest, not that order.
    /// ([`Chunk::verify`] is the on-arrival check: it hashes one chunk
    /// against the entry at the index it carries.)
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Malformed`] if the chunk and manifest counts
    /// differ; else the first failing chunk in payload order
    /// ([`ArtifactError::ChunkOutOfOrder`] or
    /// [`ArtifactError::ChunkHashMismatch`]); else
    /// [`ArtifactError::RootMismatch`] if the per-chunk hashes pass but
    /// the chained root differs (a manifest/payload mix-up).
    pub fn verify(&self) -> Result<(), ArtifactError> {
        if self.chunks.len() != self.manifest.chunk_hashes.len() {
            return Err(ArtifactError::Malformed(format!(
                "{} chunks but {} manifest hashes",
                self.chunks.len(),
                self.manifest.chunk_hashes.len()
            )));
        }
        let hashes = hash_chunks(&self.chunks);
        for (position, (c, hash)) in self.chunks.iter().zip(hashes).enumerate() {
            if c.index as usize != position {
                return Err(ArtifactError::ChunkOutOfOrder {
                    position: u32::try_from(position).unwrap_or(u32::MAX),
                    index: c.index,
                });
            }
            if self.manifest.chunk_hashes.get(c.index as usize) != Some(&hash) {
                return Err(ArtifactError::ChunkHashMismatch { index: c.index });
            }
        }
        let root = Manifest::chain_root(&self.manifest.version, &self.manifest.chunk_hashes);
        if root != self.manifest.root {
            return Err(ArtifactError::RootMismatch);
        }
        Ok(())
    }

    /// Verifies integrity, parses the payload, and reattaches explicit
    /// weights — the full install path a device runs before activation.
    ///
    /// # Errors
    ///
    /// Any integrity or format violation, a weight record whose node
    /// index is not above the previous record's included; nothing
    /// partial is returned.
    pub fn unpack(&self) -> Result<Graph, ArtifactError> {
        self.verify()?;
        let mut r = Reader::new(&self.chunks);
        if *r.take(MAGIC.len())? != *MAGIC {
            return Err(ArtifactError::Malformed("bad magic".into()));
        }
        let version = r.line()?;
        let version = std::str::from_utf8(&version)
            .map_err(|_| ArtifactError::Malformed("header line is not UTF-8".into()))?;
        if version != self.manifest.version {
            return Err(ArtifactError::Malformed(format!(
                "payload labeled {version:?} but manifest says {:?}",
                self.manifest.version
            )));
        }
        let text_len = usize::try_from(r.u64()?)
            .map_err(|_| ArtifactError::Malformed("text length overflow".into()))?;
        let text = r.take(text_len)?;
        let text = std::str::from_utf8(&text)
            .map_err(|_| ArtifactError::Malformed("graph text is not UTF-8".into()))?;
        let mut graph = textual::read(text)?;

        // The verifier gates the parsed architecture before any shape is
        // read from it; weight shapes then come from the architecture,
        // never from the record headers.
        analysis::verify_for_execution(&graph)?;
        let shapes: Vec<Option<Vec<Shape>>> = graph
            .nodes()
            .iter()
            .map(|n| {
                (!matches!(n.weights, WeightInit::None))
                    .then(|| n.weight_shapes(&graph.node_input_shapes(n)))
            })
            .collect();

        let record_count = r.u32()? as usize;
        let mut previous = None;
        for _ in 0..record_count {
            let node_idx = r.u32()? as usize;
            if let Some(before) = previous.filter(|&before| node_idx <= before) {
                return Err(ArtifactError::Malformed(format!(
                    "weight record for node {node_idx} after node {before}: records must ascend"
                )));
            }
            previous = Some(node_idx);
            let tensor_count = r.u32()? as usize;
            let template = shapes
                .get(node_idx)
                .and_then(Option::as_ref)
                .ok_or_else(|| {
                    ArtifactError::Malformed(format!(
                        "weight record for weightless node {node_idx}"
                    ))
                })?;
            if template.len() != tensor_count {
                return Err(ArtifactError::Malformed(format!(
                    "node {node_idx}: {tensor_count} stored tensors, structure wants {}",
                    template.len()
                )));
            }
            let mut tensors = Vec::with_capacity(tensor_count);
            for shape in template {
                // The architecture is trusted for its structure only: a
                // shape whose element or byte count overflows is refused
                // before it is compared with the record.
                let want = shape.checked_elem_count().ok_or_else(|| {
                    ArtifactError::Malformed(format!(
                        "node {node_idx}: weight shape {shape} overflows"
                    ))
                })?;
                let n = usize::try_from(r.u64()?)
                    .map_err(|_| ArtifactError::Malformed("tensor length overflow".into()))?;
                if n != want {
                    return Err(ArtifactError::Malformed(format!(
                        "node {node_idx}: stored tensor has {n} floats, shape wants {want}"
                    )));
                }
                tensors.push(Tensor::from_vec(shape.clone(), r.f32s(n)?)?);
            }
            graph.nodes_mut()[node_idx].weights = WeightInit::Explicit(tensors);
        }
        if !r.at_end() {
            return Err(ArtifactError::Malformed(
                "trailing bytes after records".into(),
            ));
        }
        Ok(graph)
    }
}

/// SHA-256 of each chunk's payload, in order: the one way a chunk list
/// is hashed, by [`ModelArtifact::pack`] and [`ModelArtifact::verify`].
fn hash_chunks(chunks: &[Chunk]) -> Vec<[u8; 32]> {
    let payloads: Vec<&[u8]> = chunks.iter().map(|c| c.payload.as_slice()).collect();
    sha256_each(&payloads)
}

/// Writes a payload of known length into chunks of `chunk_bytes` (the
/// last one short), each allocated once at its final size.
struct ChunkWriter {
    chunks: Vec<Chunk>,
    chunk_bytes: usize,
    /// Payload bytes not written yet.
    left: usize,
}

impl ChunkWriter {
    fn new(payload_bytes: usize, chunk_bytes: usize) -> Self {
        ChunkWriter {
            chunks: Vec::with_capacity(payload_bytes.div_ceil(chunk_bytes)),
            chunk_bytes,
            left: payload_bytes,
        }
    }

    /// Appends `bytes`, opening chunks as the last one fills.
    fn put(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self
                .chunks
                .last()
                .is_none_or(|c| c.payload.len() == self.chunk_bytes)
            {
                self.chunks.push(Chunk {
                    index: u32::try_from(self.chunks.len()).unwrap_or(u32::MAX),
                    payload: Vec::with_capacity(self.chunk_bytes.min(self.left)),
                });
            }
            let Some(chunk) = self.chunks.last_mut() else {
                return;
            };
            let (now, rest) =
                bytes.split_at((self.chunk_bytes - chunk.payload.len()).min(bytes.len()));
            chunk.payload.extend_from_slice(now);
            self.left = self.left.saturating_sub(now.len());
            bytes = rest;
        }
    }
}

/// Bounds-checked little-endian reader over the chunks in place: a
/// field inside one chunk is borrowed, one that straddles a chunk
/// boundary is copied.
struct Reader<'a> {
    /// Unread bytes of the current chunk.
    head: &'a [u8],
    /// The chunks after it.
    rest: std::slice::Iter<'a, Chunk>,
    /// Unread bytes in all.
    left: usize,
}

impl<'a> Reader<'a> {
    fn new(chunks: &'a [Chunk]) -> Self {
        Reader {
            head: &[],
            rest: chunks.iter(),
            left: chunks.iter().map(|c| c.payload.len()).sum(),
        }
    }

    /// The current chunk's unread bytes, moving on to the next
    /// non-empty chunk once they are used up; empty at the end.
    fn run(&mut self) -> &'a [u8] {
        while self.head.is_empty() {
            match self.rest.next() {
                Some(c) => self.head = &c.payload,
                None => break,
            }
        }
        self.head
    }

    /// Consumes `n` bytes of the current run.
    fn advance(&mut self, n: usize) {
        self.head = &self.head[n..];
        self.left -= n;
    }

    /// Refuses a read of `n` bytes past the end.
    fn check(&self, n: usize) -> Result<(), ArtifactError> {
        if n > self.left {
            return Err(ArtifactError::Malformed("truncated payload".into()));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<Cow<'a, [u8]>, ArtifactError> {
        self.check(n)?;
        let run = self.run();
        if n <= run.len() {
            self.advance(n);
            return Ok(Cow::Borrowed(&run[..n]));
        }
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let run = self.run();
            let k = run.len().min(n - out.len());
            out.extend_from_slice(&run[..k]);
            self.advance(k);
        }
        Ok(Cow::Owned(out))
    }

    fn array<const K: usize>(&mut self) -> Result<[u8; K], ArtifactError> {
        let mut out = [0; K];
        out.copy_from_slice(&self.take(K)?);
        Ok(out)
    }

    /// The bytes up to the next newline, which is consumed.
    fn line(&mut self) -> Result<Cow<'a, [u8]>, ArtifactError> {
        let len = std::iter::once(self.head)
            .chain(self.rest.clone().map(|c| c.payload.as_slice()))
            .flatten()
            .position(|&b| b == b'\n')
            .ok_or_else(|| ArtifactError::Malformed("unterminated header line".into()))?;
        let line = self.take(len)?;
        self.take(1)?;
        Ok(line)
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        self.array().map(u64::from_le_bytes)
    }

    /// `n` little-endian floats, decoded straight into their `Vec` once
    /// the bytes are known to be present.
    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, ArtifactError> {
        self.check(n.saturating_mul(4))?;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let run = self.run();
            let whole = (run.len() / 4).min(n - out.len());
            let (floats, _) = run[..4 * whole].as_chunks::<4>();
            out.extend(floats.iter().map(|&b| f32::from_le_bytes(b)));
            self.advance(4 * whole);
            if out.len() < n {
                // Under four bytes are left in this chunk: the next float
                // straddles its end.
                out.push(f32::from_le_bytes(self.array()?));
            }
        }
        Ok(out)
    }

    fn at_end(&self) -> bool {
        self.left == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vedliot_nnir::exec::{RunOptions, Runner};
    use vedliot_nnir::shape::Shape;
    use vedliot_nnir::train::mlp;
    use vedliot_nnir::zoo;

    /// Chunks `payload` and hash-chains the chunks under `version`.
    fn from_payload(version: &str, payload: &[u8], chunk_bytes: usize) -> ModelArtifact {
        let chunks: Vec<Chunk> = payload
            .chunks(chunk_bytes)
            .enumerate()
            .map(|(i, c)| Chunk {
                index: i as u32,
                payload: c.to_vec(),
            })
            .collect();
        ModelArtifact::from_chunks(version, chunks, payload.len())
    }

    /// The packer before it streamed into chunks, kept as the oracle:
    /// it clones the graph to swap its explicit weights for seeded
    /// placeholders, clones every weight tensor into its records, and
    /// assembles the whole payload before chunking it.
    fn pack_reference(version: &str, graph: &Graph, chunk_bytes: usize) -> ModelArtifact {
        let (text, weight_records) = text_and_records(graph);
        let payload = payload_of(version, &text, &weight_records);
        from_payload(version, &payload, chunk_bytes)
    }

    /// `graph`'s architecture text, every explicit weight a seeded
    /// placeholder, and its weight records in node order.
    fn text_and_records(graph: &Graph) -> (String, Vec<(u32, Vec<Tensor>)>) {
        let mut arch = graph.clone();
        let mut weight_records: Vec<(u32, Vec<Tensor>)> = Vec::new();
        for (idx, node) in arch.nodes_mut().iter_mut().enumerate() {
            if let WeightInit::Explicit(tensors) = &node.weights {
                weight_records.push((idx as u32, tensors.clone()));
                node.weights = WeightInit::Seeded(0);
            }
        }
        (textual::write(&arch).expect("serializes"), weight_records)
    }

    /// The payload of `text` and `records`, in the order given.
    fn payload_of(version: &str, text: &str, records: &[(u32, Vec<Tensor>)]) -> Vec<u8> {
        let mut payload = Vec::with_capacity(text.len() + 64);
        payload.extend_from_slice(MAGIC);
        payload.extend_from_slice(version.as_bytes());
        payload.push(b'\n');
        payload.extend_from_slice(&(text.len() as u64).to_le_bytes());
        payload.extend_from_slice(text.as_bytes());
        payload.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for (idx, tensors) in records {
            payload.extend_from_slice(&idx.to_le_bytes());
            payload.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
            for t in tensors {
                payload.extend_from_slice(&(t.data().len() as u64).to_le_bytes());
                for v in t.data() {
                    payload.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        payload
    }

    #[test]
    fn streamed_pack_equals_the_reference_packer() {
        // The small zoo models at every chunk size (LeNet-5's 245 KB in
        // 1-byte chunks aside), MobileNetV3-Large (a 21.9 MB release) in
        // 64 KiB ones, each with its weights materialized and as built
        // (no explicit weights): the same chunks and the same manifest,
        // every chunk allocated at its final size. (Each pack here hashes
        // every chunk, twice with the reference: in a debug build the
        // 86–257 MB releases of ResNet-50, EfficientNetV2-S and YOLOv4
        // would take minutes, so they are left out.)
        let small: &[usize] = &[1, 7, 4096, 65_536];
        let cases = [
            (zoo::lenet5(10).expect("builds"), &small[1..]),
            (
                zoo::tiny_cnn("t", Shape::nchw(1, 3, 16, 16), &[8, 16], 4).expect("builds"),
                small,
            ),
            (
                zoo::conv1d_classifier("c", 2, 64, &[8, 16], 3).expect("builds"),
                small,
            ),
            (zoo::mobilenet_v3_large(1000).expect("builds"), &[65_536]),
        ];
        for (model, sizes) in cases {
            let mut explicit = model.clone();
            explicit.explicit_weights(|_| true);
            for graph in [&explicit, &model] {
                for &size in sizes {
                    let got = ModelArtifact::pack("v1", graph, size).expect("packs");
                    let want = pack_reference("v1", graph, size);
                    assert_eq!(got.manifest, want.manifest, "{} at {size}", graph.name());
                    assert!(got.chunks == want.chunks, "{} at {size}", graph.name());
                    assert!(got
                        .chunks
                        .iter()
                        .all(|c| c.payload.capacity() == c.payload.len()));
                }
            }
        }
    }

    fn explicit_model() -> Graph {
        // Materialize the seeded weights so the graph carries Explicit
        // tensors, like a trained model about to ship.
        let mut g = mlp("ota-test", 6, &[5], 3).expect("mlp builds");
        g.explicit_weights(|_| true);
        g
    }

    fn probe_output(g: &Graph) -> Tensor {
        let input = Tensor::random(Shape::nf(1, 6), 11, 1.0);
        let mut runner = Runner::builder().build(g).expect("valid graph");
        runner
            .execute(std::slice::from_ref(&input), RunOptions::default())
            .expect("runs")
            .outputs()[0]
            .clone()
    }

    /// Every weight of `g` as bits, node by node.
    fn weight_bits(g: &Graph) -> Vec<Vec<u32>> {
        g.nodes()
            .iter()
            .map(|n| {
                let w = g.node_weights(n).expect("weights");
                w.iter()
                    .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
                    .collect()
            })
            .collect()
    }

    /// `g` packed into at least 33 equal chunks plus a short last one:
    /// verification hashes four side by side at a time. For
    /// `explicit_model` (33 of 14 bytes and one of 9, one block each)
    /// that is eight 4-lane passes and the last two chunks alone, which
    /// would fill only half of the four lanes.
    fn many_chunks(g: &Graph) -> ModelArtifact {
        let len = ModelArtifact::pack("v1", g, usize::MAX)
            .expect("packs")
            .payload_bytes();
        let size = (1..=len / 33)
            .rev()
            .find(|&c| !len.is_multiple_of(c))
            .expect("a chunk size leaves a short last chunk");
        let artifact = ModelArtifact::pack("v1", g, size).expect("packs");
        assert!(artifact.chunks.len() >= 34);
        assert!(artifact.chunks.last().expect("has chunks").payload.len() < size);
        artifact
    }

    #[test]
    fn pack_unpack_round_trips_weights_exactly() {
        // At these chunk sizes the header, the text and the floats each
        // straddle a chunk edge somewhere, so the reader's carry path
        // runs; the many-chunk release verifies through the lanes.
        let g = explicit_model();
        let sized = [1, 3, 5, 7, 13, 64, 96, 4096]
            .map(|size| ModelArtifact::pack("v1", &g, size).expect("packs"));
        for artifact in sized.iter().chain([&many_chunks(&g)]) {
            let back = artifact.unpack().expect("unpacks");
            // Same architecture, same explicit weights, same outputs.
            assert_eq!(g, back);
            assert_eq!(weight_bits(&g), weight_bits(&back));
            let a = probe_output(&g);
            let b = probe_output(&back);
            assert_eq!(a.max_abs_diff(&b).expect("same shape"), 0.0);
        }
    }

    #[test]
    fn equal_chunks_and_a_short_last_one_round_trip_and_name_a_flipped_chunk() {
        // n equal chunks and a short last one, n = 0..=17: verification
        // hashes them in groups of every lane width, full and partly
        // filled. Each release round-trips its weights exactly, and a
        // flipped byte in chunk i fails `verify` at chunk i.
        let mut g = mlp("ota-sweep", 16, &[32], 4).expect("mlp builds");
        g.explicit_weights(|_| true);
        let len = ModelArtifact::pack("v1", &g, usize::MAX)
            .expect("packs")
            .payload_bytes();
        for n in 0..=17 {
            // The short chunk stays within 2x of the others, as an OTA
            // release's does.
            let size = (1..=2 * len / (2 * n + 1))
                .rev()
                .find(|&c| len.div_ceil(c) == n + 1 && !len.is_multiple_of(c))
                .expect("a chunk size leaves n equal chunks and a short one");
            let artifact = ModelArtifact::pack("v1", &g, size).expect("packs");
            assert_eq!(artifact.chunks.len(), n + 1);
            let back = artifact.unpack().expect("unpacks");
            assert_eq!(weight_bits(&g), weight_bits(&back), "{n} equal chunks");
            for i in 0..=n {
                let mut evil = artifact.clone();
                let byte = (7 * i) % evil.chunks[i].payload.len();
                evil.chunks[i].payload[byte] ^= 0x10;
                match evil.verify() {
                    Err(ArtifactError::ChunkHashMismatch { index }) => {
                        assert_eq!(index as usize, i, "{n} equal chunks");
                    }
                    other => panic!("flip in chunk {i} of {n}: got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn repeated_or_unordered_weight_records_are_malformed() {
        // A correctly chained payload whose records repeat node 0's, or
        // swap two: the last record would win, so `unpack` refuses both.
        let g = explicit_model();
        let (text, records) = text_and_records(&g);
        assert!(records.len() >= 2, "the MLP has two weighted layers");
        let in_order = from_payload("v1", &payload_of("v1", &text, &records), 64);
        assert_eq!(in_order.unpack().expect("unpacks"), g);
        let mut repeated = records.clone();
        repeated.insert(1, records[0].clone());
        let mut swapped = records.clone();
        swapped.swap(0, 1);
        for bad in [repeated, swapped] {
            let artifact = from_payload("v1", &payload_of("v1", &text, &bad), 64);
            artifact.verify().expect("integrity holds");
            match artifact.unpack() {
                Err(ArtifactError::Malformed(why)) => assert!(why.contains("must ascend"), "{why}"),
                other => panic!("expected malformed, got {other:?}"),
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// An MLP release with up to three bytes flipped, cut or
        /// inserted, re-chained so integrity passes and the decoders see
        /// the damage: `unpack` returns `Ok` or a typed error, never
        /// panics.
        #[test]
        fn damaged_payloads_unpack_to_a_typed_error_or_a_graph(
            edits in proptest::collection::vec(
                (0u8..3, proptest::any::<usize>(), proptest::any::<u8>()),
                1..4,
            ),
            chunk_bytes in 1usize..200,
        ) {
            let (text, records) = text_and_records(&explicit_model());
            let mut payload = payload_of("v1", &text, &records);
            for (kind, at, byte) in edits {
                let at = at % (payload.len() + 1);
                match kind {
                    0 => {
                        if let Some(b) = payload.get_mut(at) {
                            *b ^= byte.max(1);
                        }
                    }
                    1 => payload.truncate(at),
                    _ => payload.insert(at, byte),
                }
            }
            let artifact = from_payload("v1", &payload, chunk_bytes);
            proptest::prop_assert!(artifact.verify().is_ok());
            // Any outcome but a panic.
            let _ = artifact.unpack();
        }

        /// The original chunks of an MLP release, two swapped, one
        /// copied over another or one dropped: `unpack` refuses the
        /// order or the count.
        #[test]
        fn swapped_duplicated_or_dropped_chunks_never_unpack(
            op in 0u8..3,
            i in proptest::any::<usize>(),
            j in proptest::any::<usize>(),
            chunk_bytes in 16usize..160,
        ) {
            let artifact = ModelArtifact::pack("v1", &explicit_model(), chunk_bytes).expect("packs");
            let n = artifact.chunks.len();
            // Two different positions.
            let (i, j) = (i % n, (i % n + 1 + j % (n - 1)) % n);
            let mut evil = artifact.clone();
            match op {
                0 => evil.chunks.swap(i, j),
                1 => evil.chunks[j] = evil.chunks[i].clone(),
                _ => {
                    evil.chunks.remove(i);
                }
            }
            match evil.unpack() {
                Err(ArtifactError::ChunkOutOfOrder { .. }) if op < 2 => {}
                Err(ArtifactError::Malformed(_)) if op == 2 => {}
                other => proptest::prop_assert!(false, "op {op} at {i}, {j}: got {other:?}"),
            }
        }
    }

    #[test]
    fn every_flipped_bit_in_any_chunk_is_caught() {
        let g = explicit_model();
        let artifact = ModelArtifact::pack("v1", &g, 128).expect("packs");
        for (i, chunk) in artifact.chunks.iter().enumerate() {
            let mut evil = chunk.clone();
            let byte = (i * 7) % evil.payload.len();
            evil.payload[byte] ^= 1 << (i % 8);
            assert!(
                !evil.verify(&artifact.manifest),
                "flipped bit in chunk {i} slipped past the hash check"
            );
        }
        // And through the end-to-end path: a corrupted chunk fails unpack.
        let mut tampered = artifact.clone();
        tampered.chunks[1].payload[0] ^= 0x80;
        match tampered.unpack() {
            Err(ArtifactError::ChunkHashMismatch { index: 1 }) => {}
            other => panic!("expected chunk-1 hash mismatch, got {other:?}"),
        }
    }

    #[test]
    fn flipped_bytes_report_the_lowest_failing_chunk() {
        let artifact = many_chunks(&explicit_model());
        let last = artifact.chunks.len() - 1;
        for flipped in [
            &[0][..],
            &[15],
            &[16],
            &[31],
            &[last],
            &[31, 16],
            &[15, 31],
            &[last, 0],
        ] {
            let mut evil = artifact.clone();
            for &i in flipped {
                evil.chunks[i].payload[0] ^= 0x01;
            }
            let lowest = *flipped.iter().min().expect("one flip") as u32;
            match evil.unpack() {
                Err(ArtifactError::ChunkHashMismatch { index }) => assert_eq!(index, lowest),
                other => panic!("flips in {flipped:?}: expected a hash mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn root_binds_chunk_order() {
        let g = explicit_model();
        let mut artifact = ModelArtifact::pack("v1", &g, 64).expect("packs");
        // Swap two chunks *and* their manifest hashes: per-chunk checks
        // pass, but the chained root no longer matches.
        artifact.chunks.swap(0, 1);
        artifact.manifest.chunk_hashes.swap(0, 1);
        let a = artifact.chunks[0].index;
        artifact.chunks[0].index = artifact.chunks[1].index;
        artifact.chunks[1].index = a;
        match artifact.verify() {
            Err(ArtifactError::RootMismatch) => {}
            other => panic!("expected root mismatch, got {other:?}"),
        }
    }

    /// LeNet-5 with explicit weights, packed in 4 KiB chunks.
    fn lenet_release() -> ModelArtifact {
        let mut g = vedliot_nnir::zoo::lenet5(10).expect("lenet builds");
        g.explicit_weights(|_| true);
        let artifact = ModelArtifact::pack("v1", &g, 4096).expect("packs");
        assert!(artifact.chunks.len() > 22);
        artifact
    }

    /// Both `verify` and `unpack` refuse `artifact` for the chunk at
    /// `position` carrying `index`.
    fn assert_out_of_order(artifact: &ModelArtifact, position: u32, index: u32) {
        for result in [artifact.verify(), artifact.unpack().map(|_| ())] {
            match result {
                Err(ArtifactError::ChunkOutOfOrder {
                    position: p,
                    index: i,
                }) if (p, i) == (position, index) => {}
                other => panic!("expected chunk {index} out of order at {position}, got {other:?}"),
            }
        }
    }

    #[test]
    fn swapped_chunks_are_refused() {
        // Both chunks keep their own index and hash, so each passes the
        // on-arrival check; the install-time check refuses the order.
        let mut artifact = lenet_release();
        artifact.chunks.swap(20, 21);
        assert!(artifact.chunks.iter().all(|c| c.verify(&artifact.manifest)));
        assert_out_of_order(&artifact, 20, 21);
    }

    #[test]
    fn duplicated_chunk_is_refused() {
        let mut artifact = lenet_release();
        artifact.chunks[21] = artifact.chunks[20].clone();
        assert_out_of_order(&artifact, 21, 20);
    }

    #[test]
    fn version_label_is_part_of_identity() {
        let g = explicit_model();
        let a = ModelArtifact::pack("v1", &g, 128).expect("packs");
        let b = ModelArtifact::pack("v2", &g, 128).expect("packs");
        assert_ne!(a.manifest.root, b.manifest.root);
        assert!(ModelArtifact::pack("v\n1", &g, 128).is_err());
    }

    #[test]
    fn oversized_weight_record_is_malformed_before_allocating() {
        // A correctly chained payload whose architecture declares a
        // 2^20 x 2^20 Dense weight (4 TiB of f32) backed by 8 bytes: the
        // record must be refused from the bytes present, not by first
        // reserving what it claims.
        let mut b = vedliot_nnir::GraphBuilder::new("huge");
        let x = b.input(Shape::nf(1, 1 << 20));
        let fc = b
            .apply(
                "fc",
                vedliot_nnir::Op::Dense {
                    out_features: 1 << 20,
                    bias: true,
                },
                &[x],
            )
            .expect("dense builds");
        let text = textual::write(&b.finish(vec![fc])).expect("serializes");
        let mut payload = MAGIC.to_vec();
        payload.extend_from_slice(b"v1\n");
        payload.extend_from_slice(&(text.len() as u64).to_le_bytes());
        payload.extend_from_slice(text.as_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes()); // one record
        payload.extend_from_slice(&0u32.to_le_bytes()); // node 0: fc
        payload.extend_from_slice(&2u32.to_le_bytes()); // weight + bias
        payload.extend_from_slice(&(1u64 << 40).to_le_bytes());
        payload.extend_from_slice(&[0; 8]);
        let artifact = from_payload("v1", &payload, 64);
        artifact.verify().expect("integrity holds");
        match artifact.unpack() {
            Err(ArtifactError::Malformed(_)) => {}
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn weight_shape_overflowing_usize_is_malformed() {
        // A correctly chained payload whose architecture declares a
        // 2^31 x 2^33 Dense weight: its element count wraps to 0, which
        // the record's 0 floats would otherwise match. The node is
        // seeded, so the verifier's V010 refuses its derived weight shape
        // before a record is read.
        let text = "model \"wrap\"\n\
                    input t0 [1x8589934592]\n\
                    node n0 \"fc1\" dense out=2147483648 bias=false in=t0 seed=0\n\
                    output t1\n";
        let mut payload = MAGIC.to_vec();
        payload.extend_from_slice(b"v1\n");
        payload.extend_from_slice(&(text.len() as u64).to_le_bytes());
        payload.extend_from_slice(text.as_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes()); // one record
        payload.extend_from_slice(&0u32.to_le_bytes()); // node 0: fc1
        payload.extend_from_slice(&1u32.to_le_bytes()); // weight only
        payload.extend_from_slice(&0u64.to_le_bytes()); // of 0 floats
        let artifact = from_payload("v1", &payload, 64);
        artifact.verify().expect("integrity holds");
        match artifact.unpack() {
            Err(ArtifactError::Graph(NnirError::VerifierRejected { code, .. })) => {
                assert_eq!(code, "V010");
            }
            other => panic!("expected a V010 rejection, got {other:?}"),
        }
    }

    /// A correctly chained payload of `text` and no weight records.
    fn architecture_only(text: &str) -> ModelArtifact {
        let mut payload = MAGIC.to_vec();
        payload.extend_from_slice(b"v1\n");
        payload.extend_from_slice(&(text.len() as u64).to_le_bytes());
        payload.extend_from_slice(text.as_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes()); // no records
        let artifact = from_payload("v1", &payload, 64);
        artifact.verify().expect("integrity holds");
        artifact
    }

    #[test]
    fn window_padding_overflowing_usize_is_a_text_error() {
        // `h + 2·pad` overflows: shape inference refuses the node while
        // the architecture is parsed.
        let text = "model \"pad\"\n\
                    input t0 [1x1x4x4]\n\
                    node n0 \"c\" conv2d out=1 kernel=3x3 stride=1x1 pad=9223372036854775808x1 groups=1 bias=false in=t0 seed=1\n\
                    output t1\n";
        match architecture_only(text).unpack() {
            Err(ArtifactError::Text(e)) => assert_eq!(e.line, 3),
            other => panic!("expected a text error, got {other:?}"),
        }
    }

    #[test]
    fn seeded_weight_shape_overflowing_usize_is_a_verifier_error() {
        // A seeded conv whose 2^32 x 2^32 kernel fits its padded
        // one-pixel input: the OTA format keeps the seed, so the weights
        // it would materialize (2^64 elements) meet V010 at unpack.
        let text = "model \"kernel\"\n\
                    input t0 [1x1x1x1]\n\
                    node n0 \"c\" conv2d out=1 kernel=4294967296x4294967296 stride=1x1 pad=2147483648x2147483648 groups=1 bias=false in=t0 seed=1\n\
                    output t1\n";
        match architecture_only(text).unpack() {
            Err(ArtifactError::Graph(NnirError::VerifierRejected { code, .. })) => {
                assert_eq!(code, "V010");
            }
            other => panic!("expected a V010 rejection, got {other:?}"),
        }
    }

    #[test]
    fn activation_shape_overflowing_usize_is_a_verifier_error() {
        // `zoo::tiny_cnn`'s architecture with a 2^32 x 2^32 input: every
        // element count in it overflows. The verifier refuses it before
        // a record is read or a shape multiplied.
        let g = zoo::tiny_cnn("t", Shape::nchw(1, 1, 16, 16), &[4], 2).expect("builds");
        let text = textual::write(&g).expect("serializes");
        let text = text.replacen("[1x1x16x16]", "[1x1x4294967296x4294967296]", 1);
        let mut payload = MAGIC.to_vec();
        payload.extend_from_slice(b"v1\n");
        payload.extend_from_slice(&(text.len() as u64).to_le_bytes());
        payload.extend_from_slice(text.as_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes()); // no records
        let artifact = from_payload("v1", &payload, 64);
        artifact.verify().expect("integrity holds");
        match artifact.unpack() {
            Err(ArtifactError::Graph(NnirError::VerifierRejected { code, .. })) => {
                assert_eq!(code, "V010");
            }
            other => panic!("expected a V010 rejection, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let g = explicit_model();
        let artifact = ModelArtifact::pack("v1", &g, 128).expect("packs");
        // Re-chain all but the last chunk so integrity passes, leaving
        // only the format check to catch the truncation.
        let payload: Vec<u8> = artifact
            .chunks
            .iter()
            .flat_map(|c| c.payload.clone())
            .collect();
        let last = artifact.chunks.last().expect("has chunks").payload.len();
        let truncated = from_payload("v1", &payload[..payload.len() - last], 128);
        match truncated.unpack() {
            Err(ArtifactError::Malformed(_)) => {}
            other => panic!("expected malformed, got {other:?}"),
        }
        // Cut at every length, re-chained in chunks the fields straddle:
        // always a typed error, never a panic.
        for len in 0..payload.len() {
            let cut = from_payload("v1", &payload[..len], 7);
            assert!(cut.unpack().is_err(), "payload cut to {len} bytes unpacked");
        }
    }
}
