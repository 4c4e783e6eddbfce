//! Minimal CSV reader/writer for relations.
//!
//! One dialect, the one [`write_str_with`] emits: `,` between fields, a
//! header row of attribute names, RFC-4180-style quoting, and an empty
//! field, `?` (the echocardiogram convention) or `NA` for a missing value.
//! The reader adds type inference (int → float → text). Implemented
//! in-repo to keep the dependency footprint to the crates the project
//! brief allows.
//!
//! Ingest is *streaming*: [`read_path`] / [`read_stream`] decode the input
//! in fixed-size chunks through an incremental record splitter straight
//! into typed-column builders, so peak memory is the typed columns plus one
//! chunk — never the whole file as a `String` plus a boxed row copy.
//! [`read_str`] runs the same machinery over a single in-memory chunk,
//! which makes the two paths identical by construction: same `Relation`,
//! same typed errors, independent of where chunk boundaries fall.

use crate::column::ColumnBuilder;
use crate::error::{RelationError, Result};
use crate::relation::Relation;
use crate::schema::{AttrKind, Attribute, Schema};
use crate::value::{Value, ValueRef};
use mp_observe::{Counter, Histogram, Recorder};
use std::fmt::Write as _;
use std::io::Read;
use std::path::Path;

/// Bytes decoded per [`read_stream`] chunk: large enough that dictionary
/// interning dominates the chunking overhead, small enough that ingest
/// memory stays flat regardless of file size.
const CHUNK_BYTES: usize = 64 * 1024;

/// Options controlling CSV parsing.
#[derive(Debug, Clone, Default)]
pub struct CsvOptions {
    /// Honour/emit a `#kinds` annotation row (second line, fields
    /// `categorical`/`continuous`) that round-trips attribute kinds —
    /// plain CSV cannot distinguish an integer-coded categorical from a
    /// continuous column otherwise.
    pub kind_row: bool,
}

impl CsvOptions {
    /// Defaults plus the `#kinds` annotation row.
    pub fn with_kind_row() -> Self {
        Self { kind_row: true }
    }
}

/// The bytes that stop an unquoted scan: `"`, `\r`, `\n` and `,`.
const STOPS: [bool; 256] = {
    let mut stops = [false; 256];
    stops[b'"' as usize] = true;
    stops[b'\r' as usize] = true;
    stops[b'\n' as usize] = true;
    stops[b',' as usize] = true;
    stops
};

/// Lookahead carried across a chunk boundary: the previous character
/// cannot be classified until the next one is seen, so the scan can
/// pause at any byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    /// No lookahead outstanding.
    None,
    /// A `"` seen inside a quoted field: a following `"` is an escaped
    /// literal quote, anything else closes the field.
    Quote,
    /// A `\r` seen outside quotes: only a following `\n` terminates the
    /// record; anything else is a bare-CR framing error.
    Cr,
}

/// Where the text of one closed field lives.
#[derive(Debug, Clone, Copy)]
enum Span {
    /// `chunk[start..end]` of the chunk being scanned.
    Chunk(usize, usize),
    /// `owned[start..end]` of the splitter's buffer.
    Owned(usize, usize),
}

/// The field being scanned.
#[derive(Debug, Clone, Copy)]
enum Field {
    /// Unquoted and begun at this byte of the current chunk. A field
    /// still borrowed when its chunk ends moves to `owned`, so at a chunk
    /// boundary a borrowed field is always empty.
    Borrowed(usize),
    /// Its text so far is `owned[start..]`: it held a quote or crossed a
    /// chunk boundary.
    Owned(usize),
}

/// One record handed to the sink: its fields, each borrowed from the
/// chunk being scanned or from the splitter's owned buffer.
struct Record<'a> {
    /// The 1-based physical line the record starts on.
    line: usize,
    chunk: &'a str,
    owned: &'a str,
    spans: &'a [Span],
}

impl<'a> Record<'a> {
    fn len(&self) -> usize {
        self.spans.len()
    }

    fn text(&self, span: Span) -> &'a str {
        let text = match span {
            Span::Chunk(start, end) => self.chunk.get(start..end),
            Span::Owned(start, end) => self.owned.get(start..end),
        };
        text.unwrap_or_default()
    }

    fn first(&self) -> Option<&'a str> {
        self.spans.first().map(|&s| self.text(s))
    }

    fn fields(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.spans.iter().map(|&s| self.text(s))
    }
}

/// Incremental CSV record splitter: text goes in as arbitrary chunks,
/// complete records come out through a sink as soon as their terminator
/// is scanned.
///
/// Scans bytes, stopping only at `"`, `\r`, `\n` and `,`; an unquoted
/// field is handed on as a slice of the chunk. Only quoted fields and
/// fields that cross a chunk boundary are copied, into one buffer the
/// splitter reuses record after record.
///
/// Handles quoted fields (including embedded commas, escaped quotes
/// and embedded newlines; text after a closing quote joins the field),
/// strips a leading UTF-8 BOM, and accepts `\n` or `\r\n` record
/// terminators. Malformed input — a bare `\r` outside quotes or a quote
/// left open at end of input — is a typed error (with the 1-based line
/// number where the offence *started*), never a silent misparse.
/// Fully-empty records (blank lines) are dropped before they reach the
/// sink.
#[derive(Debug)]
struct RecordSplitter {
    /// Closed fields of the current record.
    spans: Vec<Span>,
    /// Text of the current record's fields that could not be borrowed.
    owned: String,
    field: Field,
    in_quotes: bool,
    /// The physical line being scanned.
    line: usize,
    /// The physical line the current record started on.
    record_line: usize,
    quote_opened_at: usize,
    pending: Pending,
    /// Before the very first character, where a BOM is a marker rather
    /// than content.
    at_start: bool,
}

impl RecordSplitter {
    fn new() -> Self {
        Self {
            spans: Vec::new(),
            owned: String::new(),
            field: Field::Borrowed(0),
            in_quotes: false,
            line: 1,
            record_line: 1,
            quote_opened_at: 1,
            pending: Pending::None,
            at_start: true,
        }
    }

    fn bare_cr(&self) -> RelationError {
        RelationError::Csv {
            line: self.line,
            message: "bare CR line ending (expected \\n or \\r\\n)".into(),
        }
    }

    /// Moves a borrowed field's text so far, `chunk[start..end]`, into
    /// `owned`.
    fn own_field(&mut self, chunk: &str, end: usize) {
        if let Field::Borrowed(start) = self.field {
            let at = self.owned.len();
            self.owned
                .push_str(chunk.get(start..end).unwrap_or_default());
            self.field = Field::Owned(at);
        }
    }

    /// Closes the current field at `end` and starts the next at `next`.
    fn close_field(&mut self, end: usize, next: usize) {
        self.spans.push(match self.field {
            Field::Borrowed(start) => Span::Chunk(start, end),
            Field::Owned(start) => Span::Owned(start, self.owned.len()),
        });
        self.field = Field::Borrowed(next);
    }

    /// Hands the current record's closed fields to the sink, dropping the
    /// single-empty-field records blank lines produce, and starts afresh
    /// on the current line.
    fn end_record(&mut self, chunk: &str, sink: &mut dyn FnMut(&Record<'_>)) {
        let record = Record {
            line: self.record_line,
            chunk,
            owned: &self.owned,
            spans: &self.spans,
        };
        if !matches!(record.first(), Some("") if record.len() == 1) {
            sink(&record);
        }
        self.spans.clear();
        self.owned.clear();
        self.record_line = self.line;
    }

    /// Scans one chunk. Framing errors surface eagerly; everything else
    /// waits for [`finish`](Self::finish).
    fn feed(&mut self, chunk: &str, sink: &mut dyn FnMut(&Record<'_>)) -> Result<()> {
        let bytes = chunk.as_bytes();
        let mut pos = 0;
        if self.at_start && !chunk.is_empty() {
            // Spreadsheet exports routinely prefix a UTF-8 BOM; left in
            // place it would silently corrupt the first header name
            // ("\u{FEFF}name").
            self.at_start = false;
            if chunk.starts_with('\u{FEFF}') {
                pos = '\u{FEFF}'.len_utf8();
            }
        }
        if let Field::Borrowed(_) = self.field {
            self.field = Field::Borrowed(pos);
        }
        while let Some(&b) = bytes.get(pos) {
            match self.pending {
                Pending::Quote => {
                    self.pending = Pending::None;
                    if b == b'"' {
                        self.owned.push('"');
                        pos += 1;
                        continue;
                    }
                    // The quote closed the field; rescan `b` unquoted.
                    self.in_quotes = false;
                }
                Pending::Cr => {
                    self.pending = Pending::None;
                    if b != b'\n' {
                        // A bare CR would otherwise vanish, silently
                        // gluing two fields together.
                        return Err(self.bare_cr());
                    }
                    self.line += 1;
                    pos += 1;
                    self.end_record(chunk, sink);
                    self.field = Field::Borrowed(pos);
                    continue;
                }
                Pending::None => {}
            }
            if self.in_quotes {
                let end = bytes
                    .get(pos..)
                    .and_then(|rest| rest.iter().position(|&c| c == b'"' || c == b'\n'))
                    .map_or(bytes.len(), |at| pos + at);
                self.owned.push_str(chunk.get(pos..end).unwrap_or_default());
                match bytes.get(end) {
                    Some(b'"') => self.pending = Pending::Quote,
                    Some(_) => {
                        self.line += 1;
                        self.owned.push('\n');
                    }
                    None => {}
                }
                pos = end + 1;
                continue;
            }
            let end = bytes
                .get(pos..)
                .and_then(|rest| rest.iter().position(|&b| STOPS[usize::from(b)]))
                .map_or(bytes.len(), |at| pos + at);
            if let Field::Owned(_) = self.field {
                self.owned.push_str(chunk.get(pos..end).unwrap_or_default());
            }
            pos = end;
            match bytes.get(pos) {
                None => {}
                Some(b'"') => {
                    self.own_field(chunk, pos);
                    self.in_quotes = true;
                    self.quote_opened_at = self.line;
                    pos += 1;
                }
                Some(b'\r') => {
                    // The record may end here; its `\n` is checked next.
                    self.close_field(pos, pos + 1);
                    self.pending = Pending::Cr;
                    pos += 1;
                }
                Some(b'\n') => {
                    self.close_field(pos, pos + 1);
                    self.line += 1;
                    pos += 1;
                    self.end_record(chunk, sink);
                }
                Some(_) => {
                    self.close_field(pos, pos + 1);
                    pos += 1;
                }
            }
        }
        // The chunk is about to go: copy what the record still borrows,
        // keeping the open field's text at the end of `owned`.
        let open = match self.field {
            Field::Owned(start) => self.owned.split_off(start),
            Field::Borrowed(start) => chunk.get(start..).unwrap_or_default().to_owned(),
        };
        for span in &mut self.spans {
            if let Span::Chunk(start, end) = *span {
                let at = self.owned.len();
                self.owned
                    .push_str(chunk.get(start..end).unwrap_or_default());
                *span = Span::Owned(at, self.owned.len());
            }
        }
        if !open.is_empty() || matches!(self.field, Field::Owned(_)) {
            self.field = Field::Owned(self.owned.len());
            self.owned.push_str(&open);
        }
        Ok(())
    }

    /// Flushes end-of-input state: resolves outstanding lookahead, rejects
    /// unterminated quotes, and emits the final unterminated record.
    fn finish(&mut self, sink: &mut dyn FnMut(&Record<'_>)) -> Result<()> {
        match self.pending {
            // A quote as the very last character closes its field.
            Pending::Quote => self.in_quotes = false,
            Pending::Cr => return Err(self.bare_cr()),
            Pending::None => {}
        }
        self.pending = Pending::None;
        if self.in_quotes {
            return Err(RelationError::Csv {
                line: self.quote_opened_at,
                message: format!(
                    "unterminated quoted field (opened at line {}, still open at end of input)",
                    self.quote_opened_at
                ),
            });
        }
        if let Field::Borrowed(_) = self.field {
            self.field = Field::Borrowed(0);
        }
        self.close_field(0, 0);
        self.end_record("", sink);
        Ok(())
    }
}

/// Parses one field: empty, `?` and `NA` are null, integers are tried
/// next, then finite floats; text is borrowed, not copied.
fn parse_field(field: &str) -> ValueRef<'_> {
    let trimmed = field.trim();
    if matches!(trimmed, "" | "?" | "NA") {
        return ValueRef::Null;
    }
    if let Ok(i) = trimmed.parse::<i64>() {
        return ValueRef::Int(i);
    }
    // Only finite numerics count as numbers: `nan`/`inf` parse as f64 but
    // must stay text, or text columns containing them would not round-trip.
    if let Ok(f) = trimmed.parse::<f64>() {
        if f.is_finite() {
            // `-0.0` would display as "-0", which re-reads as integer 0;
            // normalise so serialisation is a byte-stable fixed point.
            return ValueRef::Float(if f == 0.0 { 0.0 } else { f });
        }
    }
    ValueRef::Text(trimmed)
}

/// Streaming record consumer: header and `#kinds` handling, ragged-row
/// checks and incremental typed-column building, one record at a time.
///
/// Framing errors abort the scan eagerly (the splitter returns them);
/// everything else — ragged rows, a malformed `#kinds` row — is
/// *deferred*: the first one is recorded here and returned at
/// finalisation only if the rest of the input framed cleanly. That
/// reproduces the old two-phase parse-then-validate error precedence
/// exactly: a framing error anywhere in the file outranks a row-shape
/// error earlier in it.
struct StreamIngest {
    /// Honour a `#kinds` row right after the header.
    kind_row: bool,
    /// Attribute names; `Some` once the header arrived.
    names: Option<Vec<String>>,
    arity: usize,
    /// The next record may be the `#kinds` annotation row.
    awaiting_kinds: bool,
    declared_kinds: Option<Vec<AttrKind>>,
    builders: Vec<ColumnBuilder>,
    /// All records consumed so far (header and `#kinds` included).
    records: u64,
    deferred: Option<RelationError>,
}

impl StreamIngest {
    fn new(opts: &CsvOptions) -> Self {
        Self {
            kind_row: opts.kind_row,
            names: None,
            arity: 0,
            awaiting_kinds: false,
            declared_kinds: None,
            builders: Vec::new(),
            records: 0,
            deferred: None,
        }
    }

    /// Records consumed so far (post blank-line filtering).
    fn records_seen(&self) -> u64 {
        self.records
    }

    fn accept(&mut self, record: &Record<'_>) {
        self.records += 1;
        if self.names.is_none() {
            self.arity = record.len();
            self.builders = (0..self.arity).map(|_| ColumnBuilder::new()).collect();
            self.names = Some(record.fields().map(str::to_owned).collect());
            self.awaiting_kinds = self.kind_row;
            return;
        }
        if self.awaiting_kinds {
            self.awaiting_kinds = false;
            if record.first().is_some_and(|f| f.starts_with("#kinds")) {
                self.take_kinds(record);
                return;
            }
        }
        self.push_data(record);
    }

    /// Records the first non-framing error; later ones are shadowed.
    fn defer(&mut self, err: RelationError) {
        if self.deferred.is_none() {
            self.deferred = Some(err);
        }
    }

    /// Parses the `#kinds` annotation row.
    fn take_kinds(&mut self, row: &Record<'_>) {
        let line = row.line;
        if row.len() != self.arity {
            self.defer(RelationError::Csv {
                line,
                message: format!(
                    "#kinds row has {} fields, expected {}",
                    row.len(),
                    self.arity
                ),
            });
            return;
        }
        let parse_kind = |f: &str, c: usize| match f.trim() {
            "categorical" => Ok(AttrKind::Categorical),
            "continuous" => Ok(AttrKind::Continuous),
            other => Err(RelationError::Csv {
                line,
                message: format!("unknown kind `{other}` in #kinds field {c}"),
            }),
        };
        // Field 0 carries the marker plus column 0's kind: `#kinds=<kind>`.
        let first_kind = match row
            .first()
            .and_then(|f| f.strip_prefix("#kinds="))
            .map(|k| parse_kind(k, 0))
            .transpose()
        {
            Ok(k) => k.unwrap_or(AttrKind::Categorical),
            Err(e) => {
                self.defer(e);
                return;
            }
        };
        let mut kinds = Vec::with_capacity(self.arity);
        kinds.push(first_kind);
        for (c, f) in row.fields().enumerate().skip(1) {
            match parse_kind(f, c) {
                Ok(k) => kinds.push(k),
                Err(e) => {
                    self.defer(e);
                    return;
                }
            }
        }
        self.declared_kinds = Some(kinds);
    }

    fn push_data(&mut self, record: &Record<'_>) {
        if self.deferred.is_some() {
            // The result is already doomed; keep scanning only so later
            // framing errors can take precedence.
            return;
        }
        if record.len() != self.arity {
            self.defer(RelationError::Csv {
                line: record.line,
                message: format!("expected {} fields, found {}", self.arity, record.len()),
            });
            return;
        }
        for (builder, field) in self.builders.iter_mut().zip(record.fields()) {
            match parse_field(field) {
                ValueRef::Text(text) => builder.push_text(text),
                cell => builder.push(cell.to_value()),
            }
        }
    }

    /// Resolves kinds, stringifies mixed categorical columns and builds
    /// the relation.
    fn finalize(self) -> Result<Relation> {
        if let Some(err) = self.deferred {
            return Err(err);
        }
        let Some(names) = self.names else {
            return Err(RelationError::Csv {
                line: 1,
                message: "empty input".into(),
            });
        };
        let declared = self.declared_kinds;
        let mut attrs = Vec::with_capacity(self.arity);
        let mut columns = Vec::with_capacity(self.arity);
        for (i, (name, builder)) in names.into_iter().zip(self.builders).enumerate() {
            // All-numeric (ignoring nulls) columns become continuous,
            // everything else categorical — unless a `#kinds` row said
            // otherwise.
            let kind = declared
                .as_ref()
                .and_then(|ks| ks.get(i).copied())
                .unwrap_or_else(|| {
                    if !builder.saw_text() && builder.saw_numeric() {
                        AttrKind::Continuous
                    } else {
                        AttrKind::Categorical
                    }
                });
            // Mixed numeric/text columns were inferred (or declared)
            // categorical; stringify the numerics so the column is
            // homogeneous (e.g. an ID column of "1, 2, x").
            let stringify =
                kind == AttrKind::Categorical && builder.saw_text() && builder.saw_numeric();
            let mut column = builder.finish();
            if stringify {
                let mut rebuilt = ColumnBuilder::new();
                for row in 0..column.len() {
                    let v = column.value(row);
                    if v.as_f64().is_some() {
                        rebuilt.push(Value::Text(v.to_string()));
                    } else {
                        rebuilt.push(v);
                    }
                }
                column = rebuilt.finish();
            }
            attrs.push(Attribute::new(name, kind));
            columns.push(column);
        }
        Relation::from_typed_columns(Schema::new(attrs)?, columns)
    }
}

/// Reads a relation from CSV text, inferring attribute kinds.
pub fn read_str(text: &str, opts: &CsvOptions) -> Result<Relation> {
    let mut splitter = RecordSplitter::new();
    let mut ingest = StreamIngest::new(opts);
    let mut sink = |r: &Record<'_>| ingest.accept(r);
    splitter.feed(text, &mut sink)?;
    splitter.finish(&mut sink)?;
    ingest.finalize()
}

/// Deterministic ingest-side observability handles. Every number is a
/// function of the input bytes and the chunk size alone — never wall
/// time — so metrics snapshots stay byte-reproducible.
struct IngestMetrics {
    chunks: Counter,
    records: Counter,
    bytes: Counter,
    rows_per_chunk: Histogram,
}

impl IngestMetrics {
    fn new(recorder: &dyn Recorder) -> Self {
        Self {
            chunks: recorder.counter("ingest.chunks"),
            records: recorder.counter("ingest.records"),
            bytes: recorder.counter("ingest.bytes"),
            rows_per_chunk: recorder.histogram(
                "ingest.rows_per_chunk",
                &[1, 4, 16, 64, 256, 1024, 4096, 16384, 65536],
            ),
        }
    }
}

/// The typed error `fs::read_to_string` used to produce for non-UTF-8
/// input, reproduced byte-for-byte by the chunked decoder.
fn invalid_utf8() -> RelationError {
    RelationError::Io("stream did not contain valid UTF-8".to_owned())
}

/// Feeds the valid UTF-8 prefix of `bytes` to the splitter, returning the
/// (≤ 3) trailing bytes of a scalar the chunk boundary split, to be
/// retried with the next chunk.
fn feed_bytes(
    splitter: &mut RecordSplitter,
    bytes: &[u8],
    sink: &mut dyn FnMut(&Record<'_>),
) -> Result<Vec<u8>> {
    match std::str::from_utf8(bytes) {
        Ok(s) => {
            splitter.feed(s, sink)?;
            Ok(Vec::new())
        }
        Err(e) => {
            if e.error_len().is_some() {
                // Genuinely malformed, not merely truncated.
                return Err(invalid_utf8());
            }
            let (valid, rest) = bytes.split_at(e.valid_up_to());
            let s = std::str::from_utf8(valid).map_err(|_| invalid_utf8())?;
            splitter.feed(s, sink)?;
            Ok(rest.to_vec())
        }
    }
}

/// The shared chunked-decode loop under [`read_stream`] / [`read_path`]
/// (and their observed variants). `chunk_bytes` is a parameter so tests
/// can prove chunk-size invariance down to one-byte reads.
fn read_stream_impl<R: Read>(
    mut reader: R,
    opts: &CsvOptions,
    chunk_bytes: usize,
    metrics: Option<&IngestMetrics>,
) -> Result<Relation> {
    let mut splitter = RecordSplitter::new();
    let mut ingest = StreamIngest::new(opts);
    let mut buf = vec![0u8; chunk_bytes.max(1)];
    // ≤ 3 trailing bytes of a UTF-8 scalar split by a chunk boundary.
    let mut carry: Vec<u8> = Vec::new();
    loop {
        let n = match reader.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let rows_before = ingest.records_seen();
        {
            let mut sink = |r: &Record<'_>| ingest.accept(r);
            if carry.is_empty() {
                carry = feed_bytes(&mut splitter, &buf[..n], &mut sink)?;
            } else {
                carry.extend_from_slice(&buf[..n]);
                let pending = std::mem::take(&mut carry);
                carry = feed_bytes(&mut splitter, &pending, &mut sink)?;
            }
        }
        if let Some(m) = metrics {
            m.chunks.inc();
            m.bytes.add(n as u64);
            m.rows_per_chunk.record(ingest.records_seen() - rows_before);
        }
    }
    if !carry.is_empty() {
        // The stream ended mid-scalar; `read_to_string` rejects that too.
        return Err(invalid_utf8());
    }
    {
        let mut sink = |r: &Record<'_>| ingest.accept(r);
        splitter.finish(&mut sink)?;
    }
    if let Some(m) = metrics {
        m.records.add(ingest.records_seen());
    }
    ingest.finalize()
}

/// Reads a relation from any byte stream, decoding UTF-8 incrementally in
/// fixed-size chunks. Output and typed errors are identical to
/// [`read_str`] over the same bytes, wherever the chunk boundaries fall.
pub fn read_stream<R: Read>(reader: R, opts: &CsvOptions) -> Result<Relation> {
    read_stream_impl(reader, opts, CHUNK_BYTES, None)
}

/// [`read_stream`] with ingest observability: registers the
/// `ingest.chunks` / `ingest.records` / `ingest.bytes` counters and the
/// `ingest.rows_per_chunk` histogram on `recorder`. All deterministic —
/// functions of the bytes and chunk size, never wall time — so they are
/// safe for golden-pinned metrics snapshots.
pub fn read_stream_observed<R: Read>(
    reader: R,
    opts: &CsvOptions,
    recorder: &dyn Recorder,
) -> Result<Relation> {
    let metrics = IngestMetrics::new(recorder);
    read_stream_impl(reader, opts, CHUNK_BYTES, Some(&metrics))
}

/// Reads a relation from a CSV file, streaming it in 64 KiB chunks: peak
/// ingest memory is the typed columns plus one chunk, not the whole file.
pub fn read_path(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<Relation> {
    let file = std::fs::File::open(path)?;
    read_stream_impl(file, opts, CHUNK_BYTES, None)
}

/// [`read_path`] with ingest observability (see [`read_stream_observed`]).
pub fn read_path_observed(
    path: impl AsRef<Path>,
    opts: &CsvOptions,
    recorder: &dyn Recorder,
) -> Result<Relation> {
    let file = std::fs::File::open(path)?;
    let metrics = IngestMetrics::new(recorder);
    read_stream_impl(file, opts, CHUNK_BYTES, Some(&metrics))
}

/// Serialises a relation to CSV text (with header, `?` for nulls).
pub fn write_str(relation: &Relation) -> String {
    write_str_with(relation, &CsvOptions::default())
}

/// Serialises a relation in the module's one dialect — `,` between
/// fields, a header row of attribute names — and, when `opts.kind_row`
/// is set, the `#kinds` annotation row, so kinds round-trip through
/// [`read_str`] with the same options.
///
/// Each cell is written straight from its column into the output: text
/// is quoted (with `"` doubled) only when it holds a comma, quote, `\n`
/// or `\r`, or starts with U+FEFF; nulls print as `?`, numbers by their
/// `Display`.
pub fn write_str_with(relation: &Relation, opts: &CsvOptions) -> String {
    let mut out = String::new();
    let attrs = relation.schema().attributes();
    for (i, a) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_field(&mut out, &a.name);
    }
    out.push('\n');
    if opts.kind_row {
        for (i, a) in attrs.iter().enumerate() {
            let _ = match i {
                0 => write!(out, "#kinds={}", a.kind),
                _ => write!(out, ",{}", a.kind),
            };
        }
        out.push('\n');
    }
    let columns: Vec<_> = (0..relation.arity())
        .filter_map(|c| relation.column(c).ok())
        .collect();
    for row in 0..relation.n_rows() {
        for (c, column) in columns.iter().enumerate() {
            if c > 0 {
                out.push(',');
            }
            match column.value_ref(row) {
                ValueRef::Text(s) => push_field(&mut out, s),
                // Numbers and `?` never hold a character that needs quotes.
                cell => {
                    let _ = write!(out, "{cell}");
                }
            }
        }
        out.push('\n');
    }
    out
}

/// Writes a relation to a CSV file.
pub fn write_path(relation: &Relation, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path, write_str(relation))?;
    Ok(())
}

/// Appends one text field, quoted (with `"` doubled) iff it holds a
/// comma, quote, `\n` or `\r`, or starts with U+FEFF.
fn push_field(out: &mut String, field: &str) {
    // `\r` must be quoted or the reader sees a bare-CR framing error; a
    // leading U+FEFF must be quoted or the reader's BOM strip would eat
    // it when the field opens the file.
    if field.contains([',', '"', '\n', '\r']) || field.starts_with('\u{FEFF}') {
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(field);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_parse_with_header() {
        let r = read_str("name,age\nAlice,18\nBob,22\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.schema().attribute(0).unwrap().kind, AttrKind::Categorical);
        assert_eq!(r.schema().attribute(1).unwrap().kind, AttrKind::Continuous);
        assert_eq!(r.column(1).unwrap().value(1), Value::Int(22));
    }

    #[test]
    fn question_mark_is_null() {
        let r = read_str("x,y\n?,1\n2,?\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.column(0).unwrap().value(0), Value::Null);
        assert_eq!(r.column(1).unwrap().value(1), Value::Null);
        // Column with nulls and ints still infers continuous.
        assert_eq!(r.schema().attribute(0).unwrap().kind, AttrKind::Continuous);
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        let r = read_str(
            "name,quote\n\"Smith, John\",\"he said \"\"hi\"\"\"\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(
            r.column(0).unwrap().value(0),
            Value::Text("Smith, John".into())
        );
        assert_eq!(
            r.column(1).unwrap().value(0),
            Value::Text("he said \"hi\"".into())
        );
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let r = read_str("a,b\n\"line1\nline2\",2\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.n_rows(), 1);
        assert_eq!(
            r.column(0).unwrap().value(0),
            Value::Text("line1\nline2".into())
        );
    }

    #[test]
    fn unterminated_quote_errors() {
        let err = read_str("a\n\"oops\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, RelationError::Csv { .. }));
    }

    /// A ragged record is reported at the physical line it starts on,
    /// past a `#kinds` row, a blank line or a quoted field that spans
    /// two lines, whatever the chunking.
    #[test]
    fn ragged_rows_rejected_with_line_number() {
        for (text, opts, line) in [
            ("a,b\n1,2\n3\n", CsvOptions::default(), 3),
            (
                "a,b\n#kinds=categorical,categorical\n1,2\n3\n",
                CsvOptions::with_kind_row(),
                4,
            ),
            ("a,b\n1,2\n\n3\n", CsvOptions::default(), 4),
            ("a,b\n\"x\ny\",2\n3\n", CsvOptions::default(), 4),
        ] {
            for result in [
                read_str(text, &opts),
                read_stream_impl(text.as_bytes(), &opts, 1, None),
            ] {
                match result.unwrap_err() {
                    RelationError::Csv { line: got, .. } => assert_eq!(got, line, "{text:?}"),
                    other => panic!("expected Csv error, got {other}"),
                }
            }
        }
    }

    #[test]
    fn mixed_numeric_text_column_becomes_categorical_text() {
        let r = read_str("x\n1\nhello\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.schema().attribute(0).unwrap().kind, AttrKind::Categorical);
        // The numeric is stringified so the column is homogeneous text.
        assert_eq!(r.column(0).unwrap().value(0), Value::Text("1".into()));
        assert_eq!(r.column(0).unwrap().value(1), Value::Text("hello".into()));
    }

    #[test]
    fn kind_row_roundtrips_kinds() {
        let schema = Schema::new(vec![
            Attribute::categorical("code"), // integer-coded categorical
            Attribute::continuous("x"),
        ])
        .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec![Value::Int(0), 1.5.into()],
                vec![Value::Int(1), 2.5.into()],
            ],
        )
        .unwrap();
        let opts = CsvOptions::with_kind_row();
        let text = write_str_with(&r, &opts);
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .starts_with("#kinds=categorical"));
        let back = read_str(&text, &opts).unwrap();
        assert_eq!(back.schema(), r.schema());
        assert_eq!(back, r);
        // Without the option the annotation is not honoured and the coded
        // column comes back continuous (the plain-CSV limitation).
        let plain = read_str(&text, &CsvOptions::default()).unwrap();
        assert_ne!(plain.schema(), r.schema());
    }

    #[test]
    fn malformed_kind_row_errors() {
        let opts = CsvOptions::with_kind_row();
        let err = read_str(
            "a,b
#kinds=categorical,weird
1,2
",
            &opts,
        )
        .unwrap_err();
        assert!(matches!(err, RelationError::Csv { line: 2, .. }));
        let err = read_str(
            "a,b
#kinds=categorical
1,2
",
            &opts,
        )
        .unwrap_err();
        assert!(matches!(err, RelationError::Csv { line: 2, .. }));
    }

    #[test]
    fn nan_and_inf_stay_text() {
        let r = read_str(
            "x
nan
inf
-inf
NaN
",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(r.schema().attribute(0).unwrap().kind, AttrKind::Categorical);
        for v in r.column(0).unwrap().iter() {
            assert!(
                matches!(v, crate::value::ValueRef::Text(_)),
                "{v:?} should be text"
            );
        }
    }

    #[test]
    fn crlf_tolerated() {
        let r = read_str("a,b\r\n1,2\r\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.n_rows(), 1);
    }

    #[test]
    fn utf8_bom_is_stripped_from_header() {
        let r = read_str("\u{FEFF}name,age\nAlice,18\n", &CsvOptions::default()).unwrap();
        assert_eq!(r.schema().attribute(0).unwrap().name, "name");
        // A BOM later in the file is ordinary content, not a marker.
        let r = read_str("a\n\u{FEFF}\n", &CsvOptions::default()).unwrap();
        assert_eq!(
            r.column(0).unwrap().value(0),
            Value::Text("\u{FEFF}".into())
        );
    }

    #[test]
    fn bare_cr_is_a_typed_error_not_a_silent_merge() {
        // Before hardening, the CR vanished and `1\r2` parsed as `12`.
        let err = read_str("a\n1\r2\n", &CsvOptions::default()).unwrap_err();
        match err {
            RelationError::Csv { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("bare CR"));
            }
            other => panic!("expected Csv error, got {other}"),
        }
        // Classic Mac line endings (CR-only) are rejected the same way.
        assert!(read_str("a\r1\r", &CsvOptions::default()).is_err());
    }

    #[test]
    fn unterminated_quote_at_eof_reports_opening_line() {
        let err = read_str("a,b\n1,2\n\"oops,3\n", &CsvOptions::default()).unwrap_err();
        match err {
            RelationError::Csv { line, message } => {
                assert_eq!(line, 3, "error points at the line the quote opened on");
                assert!(message.contains("unterminated"));
            }
            other => panic!("expected Csv error, got {other}"),
        }
        // Quote open at the very last byte, no trailing newline.
        assert!(read_str("a\n\"", &CsvOptions::default()).is_err());
    }

    #[test]
    fn ragged_trailing_row_rejected_with_line_number() {
        // Last record short, with and without a final newline.
        for text in ["a,b\n1,2\n3\n", "a,b\n1,2\n3"] {
            let err = read_str(text, &CsvOptions::default()).unwrap_err();
            match err {
                RelationError::Csv { line, message } => {
                    assert_eq!(line, 3);
                    assert!(message.contains("expected 2 fields"));
                }
                other => panic!("expected Csv error, got {other}"),
            }
        }
        // Trailing record with too many fields is equally typed.
        assert!(read_str("a,b\n1,2\n3,4,5\n", &CsvOptions::default()).is_err());
    }

    #[test]
    fn roundtrip() {
        let csv = "name,age\n\"Smith, J\",18\nBob,?\n";
        let r = read_str(csv, &CsvOptions::default()).unwrap();
        let out = write_str(&r);
        let r2 = read_str(&out, &CsvOptions::default()).unwrap();
        assert_eq!(r, r2);
    }

    /// Canonical fixed point: `write(read(x))` must re-read to bytes
    /// identical to its own re-serialisation. Each case is a writer bug
    /// the fuzzer found (see `fuzz/corpus/regressions/csv/`).
    #[test]
    fn writer_output_is_a_round_trip_fixed_point() {
        for text in [
            "h\n\"a\rb\"\n",      // CR inside a quoted field
            "\"\u{FEFF}h\"\n1\n", // header name starting with a BOM
            "x\n-0.0\n",          // -0.0 displays as "-0", re-reads as 0
            "\"\r\"\n",           // header that IS a bare CR
        ] {
            let first = write_str(&read_str(text, &CsvOptions::default()).unwrap());
            let again = read_str(&first, &CsvOptions::default())
                .unwrap_or_else(|e| panic!("canonical form of {text:?} rejected: {e}"));
            assert_eq!(write_str(&again), first, "not a fixed point for {text:?}");
        }
    }

    /// The row-wise writer the typed one replaced — a `Vec<Value>` per
    /// row, two `String`s per cell and a `join` — kept as the reference
    /// the typed writer must match byte for byte.
    fn row_wise_write(relation: &Relation, opts: &CsvOptions) -> String {
        fn escape(field: &str) -> String {
            if field.contains([',', '"', '\n', '\r']) || field.starts_with('\u{FEFF}') {
                format!("\"{}\"", field.replace('"', "\"\""))
            } else {
                field.to_owned()
            }
        }
        let mut out = String::new();
        let names: Vec<&str> = relation
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        out.push_str(
            &names
                .iter()
                .map(|n| escape(n))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        if opts.kind_row {
            let attrs = relation.schema().attributes();
            let mut fields = Vec::with_capacity(attrs.len());
            for (i, a) in attrs.iter().enumerate() {
                if i == 0 {
                    fields.push(format!("#kinds={}", a.kind));
                } else {
                    fields.push(a.kind.to_string());
                }
            }
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        for row in relation.rows() {
            let fields: Vec<String> = row.iter().map(|v| escape(&v.to_string())).collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }

    #[test]
    fn typed_writer_matches_row_wise_reference() {
        let schema = Schema::new(vec![
            Attribute::categorical("\u{FEFF}id"),
            Attribute::categorical("label, \"quoted\""),
            Attribute::continuous("x"),
            Attribute::continuous("n"),
            Attribute::continuous("mixed"),
        ])
        .unwrap();
        let rows = vec![
            vec![
                1.into(),
                "plain".into(),
                (-0.0).into(),
                i64::MAX.into(),
                2.into(),
            ],
            vec![
                Value::Null,
                "a,b".into(),
                1e-300.into(),
                i64::MIN.into(),
                2.5.into(),
            ],
            vec![
                3.into(),
                "say \"hi\"".into(),
                Value::Null,
                9007199254740993.into(),
                Value::Null,
            ],
            vec![
                4.into(),
                "line\nbreak\r\n".into(),
                2.5.into(),
                Value::Null,
                (-3).into(),
            ],
            vec![
                5.into(),
                "\u{FEFF}bom".into(),
                f64::MAX.into(),
                0.into(),
                1e21.into(),
            ],
            vec![6.into(), "".into(), 0.1.into(), (-7).into(), 0.into()],
            vec![7.into(), Value::Null, 1.0.into(), 7.into(), (-0.5).into()],
        ];
        let typed = Relation::from_rows(schema, rows).unwrap();
        assert_eq!(typed.column(4).unwrap().repr_name(), "f64");
        // An integer beyond 2^53 mixed with floats reads as a boxed column.
        let boxed = read_str(
            "x,y\n9007199254740993,a\n0.5,b\n1,\n",
            &CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(boxed.column(0).unwrap().repr_name(), "boxed");
        let empty = Relation::empty(boxed.schema().clone());
        for rel in [&typed, &boxed, &empty] {
            for opts in [CsvOptions::default(), CsvOptions::with_kind_row()] {
                assert_eq!(write_str_with(rel, &opts), row_wise_write(rel, &opts));
            }
        }
    }

    #[test]
    fn empty_input_is_error() {
        assert!(read_str("", &CsvOptions::default()).is_err());
    }

    /// The chunked decoder must produce the identical relation whatever
    /// the chunk size — records, quoted fields, CRLF pairs, escaped
    /// quotes, the BOM and multi-byte scalars all land on boundaries at
    /// size 1–3.
    #[test]
    fn chunked_reads_match_read_str_for_any_chunk_size() {
        let cases = [
            "name,age\nAlice,18\nBob,22\n",
            "a,b\n\"line1\nline2\",2\n",
            "name,quote\n\"Smith, John\",\"he said \"\"hi\"\"\"\n",
            "\u{FEFF}name,age\nAlice,18\n",
            "a,b\r\n1,2\r\n\"q\"\"q\",3\r\n",
            // The PR 6 canonicalisation pins, re-run through chunking.
            "h\n\"a\rb\"\n",
            "\"\u{FEFF}h\"\n1\n",
            "x\n-0.0\n",
            "\"\r\"\n",
            // Multi-byte scalars split across chunk boundaries.
            "x,y\nümlaut,1\n日本語,2\n",
            "a\n\u{FEFF}\n",
            // Mixed column stringification and blank-line filtering.
            "x\n1\nhello\n",
            "a,b\n\n1,2\n\n",
            "x,y\n?,1\n2,NA\n",
        ];
        for text in cases {
            let expected = read_str(text, &CsvOptions::default()).unwrap();
            for chunk in [1usize, 2, 3, 7, 64] {
                let got = read_stream_impl(text.as_bytes(), &CsvOptions::default(), chunk, None)
                    .unwrap_or_else(|e| panic!("chunk {chunk} failed on {text:?}: {e}"));
                assert_eq!(got, expected, "chunk {chunk} on {text:?}");
                assert_eq!(got.schema(), expected.schema(), "chunk {chunk} on {text:?}");
            }
        }
    }

    /// Malformed input must produce the identical *typed error* through
    /// every chunking, including boundaries inside the offending bytes.
    #[test]
    fn chunked_reads_report_identical_typed_errors() {
        let cases = [
            "a\n1\r2\n",            // bare CR mid-line
            "a\r1\r",               // CR-only line endings
            "a,b\n1,2\n\"oops,3\n", // unterminated quote
            "a\n\"",                // quote open at the last byte
            "a,b\n1,2\n3\n",        // ragged row
            "a,b\n1,2\n3",          // ragged row, no trailing newline
            "",                     // empty input
            "\u{FEFF}",             // BOM-only file is still empty input
        ];
        for text in cases {
            let expected = read_str(text, &CsvOptions::default()).unwrap_err();
            for chunk in [1usize, 2, 3, 7, 64] {
                let got = read_stream_impl(text.as_bytes(), &CsvOptions::default(), chunk, None)
                    .unwrap_err();
                assert_eq!(got, expected, "chunk {chunk} on {text:?}");
            }
        }
    }

    /// Error precedence is two-phase, like the old parse-then-validate
    /// reader: a framing error anywhere outranks a row-shape error
    /// earlier in the file.
    #[test]
    fn framing_errors_outrank_earlier_row_shape_errors() {
        let text = "a,b\n1\nx\rY\n"; // ragged on line 2, bare CR on line 3
        for result in [
            read_str(text, &CsvOptions::default()),
            read_stream_impl(text.as_bytes(), &CsvOptions::default(), 2, None),
        ] {
            match result.unwrap_err() {
                RelationError::Csv { line, message } => {
                    assert_eq!(line, 3);
                    assert!(message.contains("bare CR"), "{message}");
                }
                other => panic!("expected Csv error, got {other}"),
            }
        }
    }

    #[test]
    fn invalid_utf8_stream_is_a_typed_io_error() {
        let malformed: &[u8] = b"a,b\n1,\xFF\n";
        for chunk in [1usize, 4, 64] {
            let err = read_stream_impl(malformed, &CsvOptions::default(), chunk, None).unwrap_err();
            assert!(
                matches!(err, RelationError::Io(ref m) if m.contains("valid UTF-8")),
                "chunk {chunk}: {err}"
            );
        }
        // A multi-byte scalar truncated at end of stream is equally malformed.
        let truncated: &[u8] = b"x\n\xC3";
        let err = read_stream_impl(truncated, &CsvOptions::default(), 64, None).unwrap_err();
        assert!(matches!(err, RelationError::Io(ref m) if m.contains("valid UTF-8")));
    }

    #[test]
    fn kind_row_roundtrips_through_chunked_reads() {
        let opts = CsvOptions::with_kind_row();
        let schema = Schema::new(vec![
            Attribute::categorical("code"),
            Attribute::continuous("x"),
        ])
        .unwrap();
        let r = Relation::from_rows(
            schema,
            vec![
                vec![Value::Int(0), 1.5.into()],
                vec![Value::Int(1), 2.5.into()],
            ],
        )
        .unwrap();
        let text = write_str_with(&r, &opts);
        for chunk in [1usize, 3, 64] {
            let back = read_stream_impl(text.as_bytes(), &opts, chunk, None).unwrap();
            assert_eq!(back, r, "chunk {chunk}");
            assert_eq!(back.schema(), r.schema(), "chunk {chunk}");
        }
    }

    #[test]
    fn observed_ingest_is_passive_and_counts_chunks() {
        use mp_observe::Registry;
        let text = "name,age\nAlice,18\nBob,22\n";
        let registry = Registry::new();
        let metrics = IngestMetrics::new(&registry);
        let observed =
            read_stream_impl(text.as_bytes(), &CsvOptions::default(), 8, Some(&metrics)).unwrap();
        assert_eq!(observed, read_str(text, &CsvOptions::default()).unwrap());
        let snap = registry.snapshot();
        assert_eq!(snap.counters["ingest.bytes"], text.len() as u64);
        assert_eq!(snap.counters["ingest.records"], 3);
        assert_eq!(
            snap.counters["ingest.chunks"],
            text.len().div_ceil(8) as u64
        );
    }
}
