/// \file
/// PreparedIndex::Save / PreparedIndex::Load — the bridge between the
/// in-memory prepared state and the on-disk snapshot format. Lives in
/// storage/ (not index/) because everything format-specific is here:
/// prepared_index.h only declares the two entry points.
///
/// What is persisted is the *derived* state — pebble tables for both
/// sides, the gram dictionary, the global frequency order and the
/// frozen CSR serving index. Records and knowledge are cheap to
/// re-ingest and are re-borrowed by Load exactly as Build borrows
/// them; the snapshot pins their identity with order-sensitive
/// fingerprints so a snapshot can never silently serve a different
/// world (kFailedPrecondition on mismatch). The CSR sections are
/// adopted zero-copy from the snapshot mapping via
/// CsrIndex::FromSections; the variable-shape structures are decoded
/// with full bounds validation (kCorruption, never UB).

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "index/prepared_index.h"
#include "storage/env.h"
#include "storage/index_checkpoint.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"
#include "util/hash.h"

namespace aujoin {

uint64_t HashRecords(const std::vector<Record>& records) {
  uint64_t h = records.size();
  for (const Record& r : records) {
    h = HashCombine(h, r.id);
    h = HashCombine(h, HashTokenSpan(r.tokens.data(), r.tokens.size()));
  }
  return h;
}

namespace {

// --- fingerprints -----------------------------------------------------

uint64_t HashDouble(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Fingerprint of the knowledge the pebbles were generated from: every
/// rule's sides and closeness, every taxonomy node's parent and name.
uint64_t HashKnowledge(const Knowledge& knowledge) {
  uint64_t h = 0;
  if (knowledge.vocab != nullptr) h = HashCombine(h, knowledge.vocab->size());
  size_t num_rules =
      knowledge.rules == nullptr ? 0 : knowledge.rules->num_rules();
  h = HashCombine(h, num_rules);
  for (size_t i = 0; i < num_rules; ++i) {
    const SynonymRule& rule = knowledge.rules->rule(static_cast<RuleId>(i));
    h = HashCombine(h, HashTokenSpan(rule.lhs.data(), rule.lhs.size()));
    h = HashCombine(h, HashTokenSpan(rule.rhs.data(), rule.rhs.size()));
    h = HashCombine(h, HashDouble(rule.closeness));
  }
  size_t num_nodes =
      knowledge.taxonomy == nullptr ? 0 : knowledge.taxonomy->num_nodes();
  h = HashCombine(h, num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    NodeId node = static_cast<NodeId>(i);
    h = HashCombine(h, knowledge.taxonomy->Parent(node));
    const std::vector<TokenId>& name = knowledge.taxonomy->Name(node);
    h = HashCombine(h, HashTokenSpan(name.data(), name.size()));
  }
  return h;
}

// --- flat-buffer encode/decode helpers --------------------------------

constexpr size_t kArrayAlign = 8;

/// Appends raw bytes to a section buffer, 8-byte aligning each array so
/// the mmap'd reader can hand out naturally aligned typed pointers.
class ByteWriter {
 public:
  void Align() { buffer_.resize((buffer_.size() + kArrayAlign - 1) &
                                ~(kArrayAlign - 1)); }

  template <typename T>
  void Append(const T* data, size_t count) {
    Align();
    const auto* bytes = reinterpret_cast<const uint8_t*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + count * sizeof(T));
  }

  template <typename T>
  void AppendValue(const T& value) {
    Append(&value, 1);
  }

  std::vector<uint8_t> Take() {
    Align();
    return std::move(buffer_);
  }

 private:
  std::vector<uint8_t> buffer_;
};

/// Bounds-checked sequential reads over one section's payload. Every
/// Take validates against the remaining size, so a malformed (yet
/// checksum-consistent) section surfaces as kCorruption, never as an
/// out-of-bounds read.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, uint64_t size, std::string what)
      : data_(data), size_(size), what_(std::move(what)) {}

  template <typename T>
  Result<const T*> Take(uint64_t count) {
    pos_ = (pos_ + kArrayAlign - 1) & ~(kArrayAlign - 1);
    // Compare in element space: `count * sizeof(T)` can wrap for a
    // hostile count, silently passing the bounds check.
    if (pos_ > size_ || count > (size_ - pos_) / sizeof(T)) {
      return Status::Corruption(what_ + ": array of " + std::to_string(count) +
                                " elements overruns the section");
    }
    const T* out = reinterpret_cast<const T*>(data_ + pos_);
    pos_ += count * sizeof(T);
    return out;
  }

  /// All payload consumed (up to alignment padding)?
  bool Exhausted() const {
    uint64_t aligned = (pos_ + kArrayAlign - 1) & ~(kArrayAlign - 1);
    return aligned >= size_;
  }

  const std::string& what() const { return what_; }

 private:
  const uint8_t* data_;
  uint64_t size_;
  uint64_t pos_ = 0;
  std::string what_;
};

// --- gram dictionary --------------------------------------------------

std::vector<uint8_t> EncodeGramDict(const Vocabulary& dict) {
  ByteWriter out;
  uint64_t count = dict.size();
  out.AppendValue(count);
  std::vector<uint64_t> offsets(count + 1, 0);
  for (uint64_t i = 0; i < count; ++i) {
    offsets[i + 1] =
        offsets[i] + dict.Spelling(static_cast<TokenId>(i)).size();
  }
  out.Append(offsets.data(), offsets.size());
  // One contiguous blob: Append aligns each call, which would inject
  // padding between spellings and desynchronise the offsets.
  std::string blob;
  blob.reserve(offsets[count]);
  for (uint64_t i = 0; i < count; ++i) {
    blob += dict.Spelling(static_cast<TokenId>(i));
  }
  out.Append(blob.data(), blob.size());
  return out.Take();
}

Status DecodeGramDict(const SnapshotReader& reader, Vocabulary* dict) {
  Result<SnapshotReader::Section> section = reader.Find(kSectionGramDict);
  if (!section.ok()) return section.status();
  ByteReader in(section->data, section->size, "gram dictionary");
  Result<const uint64_t*> count_r = in.Take<uint64_t>(1);
  if (!count_r.ok()) return count_r.status();
  uint64_t count = **count_r;
  if (count >= section->size) {  // also blocks count + 1 wrapping to 0
    return Status::Corruption("gram dictionary count exceeds the section");
  }
  Result<const uint64_t*> offsets_r = in.Take<uint64_t>(count + 1);
  if (!offsets_r.ok()) return offsets_r.status();
  const uint64_t* offsets = *offsets_r;
  for (uint64_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::Corruption("gram dictionary offsets not monotone");
    }
  }
  Result<const char*> blob_r = in.Take<char>(count == 0 ? 0 : offsets[count]);
  if (!blob_r.ok()) return blob_r.status();
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view spelling(*blob_r + offsets[i],
                              offsets[i + 1] - offsets[i]);
    // Interning in id order reproduces dense ids 0..count-1; a repeated
    // spelling would collapse onto an earlier id and shift the rest.
    if (dict->Intern(spelling) != static_cast<TokenId>(i)) {
      return Status::Corruption("gram dictionary spellings not distinct");
    }
  }
  return Status::OK();
}

// --- global order -----------------------------------------------------

std::vector<uint8_t> EncodeGlobalOrder(const GlobalOrder& order) {
  ByteWriter out;
  std::vector<GlobalOrder::RankedKey> rows = order.ExportRankOrder();
  out.AppendValue<uint64_t>(rows.size());
  out.Append(rows.data(), rows.size());
  return out.Take();
}

Status DecodeGlobalOrder(const SnapshotReader& reader, GlobalOrder* order) {
  Result<SnapshotReader::Section> section = reader.Find(kSectionGlobalOrder);
  if (!section.ok()) return section.status();
  ByteReader in(section->data, section->size, "global order");
  Result<const uint64_t*> count_r = in.Take<uint64_t>(1);
  if (!count_r.ok()) return count_r.status();
  uint64_t count = **count_r;
  Result<const GlobalOrder::RankedKey*> rows_r =
      in.Take<GlobalOrder::RankedKey>(count);
  if (!rows_r.ok()) return rows_r.status();
  order->ImportRankOrder(*rows_r, count);
  // Duplicate keys collapse inside the import maps, so a key-count
  // mismatch afterwards is exactly the non-distinct case.
  if (order->num_keys() != count) {
    return Status::Corruption("global order keys not distinct");
  }
  return Status::OK();
}

// --- pebble tables ----------------------------------------------------

std::vector<uint8_t> EncodePebbleTable(
    const std::vector<PreparedRecord>& prepared) {
  PebbleTableHeader header;
  header.num_records = prepared.size();
  for (const PreparedRecord& pr : prepared) {
    header.total_pebbles += pr.pebbles.pebbles.size();
    header.total_segments += pr.pebbles.segments.size();
    for (const WellDefinedSegment& seg : pr.pebbles.segments) {
      header.total_rule_matches += seg.rule_matches.size();
      header.total_taxonomy_nodes += seg.taxonomy_nodes.size();
    }
  }

  ByteWriter out;
  out.AppendValue(header);

  std::vector<uint64_t> pebble_offsets(prepared.size() + 1, 0);
  std::vector<uint64_t> segment_offsets(prepared.size() + 1, 0);
  std::vector<uint32_t> num_tokens(prepared.size(), 0);
  for (size_t i = 0; i < prepared.size(); ++i) {
    pebble_offsets[i + 1] =
        pebble_offsets[i] + prepared[i].pebbles.pebbles.size();
    segment_offsets[i + 1] =
        segment_offsets[i] + prepared[i].pebbles.segments.size();
    num_tokens[i] = static_cast<uint32_t>(prepared[i].num_tokens);
  }
  out.Append(pebble_offsets.data(), pebble_offsets.size());
  out.Append(segment_offsets.data(), segment_offsets.size());
  out.Append(num_tokens.data(), num_tokens.size());

  std::vector<PebbleRow> pebbles;
  pebbles.reserve(header.total_pebbles);
  std::vector<SegmentRow> segments;
  segments.reserve(header.total_segments);
  std::vector<RuleMatchRow> rules;
  rules.reserve(header.total_rule_matches);
  std::vector<uint32_t> nodes;
  nodes.reserve(header.total_taxonomy_nodes);
  for (const PreparedRecord& pr : prepared) {
    for (const Pebble& p : pr.pebbles.pebbles) {
      pebbles.push_back(PebbleRow{p.key, p.weight, p.segment, p.measure});
    }
    for (const WellDefinedSegment& seg : pr.pebbles.segments) {
      segments.push_back(SegmentRow{
          seg.span.begin, seg.span.end,
          static_cast<uint32_t>(seg.rule_matches.size()),
          static_cast<uint32_t>(seg.taxonomy_nodes.size())});
      for (const RuleMatch& m : seg.rule_matches) {
        rules.push_back(RuleMatchRow{
            m.rule, static_cast<uint32_t>(m.side == RuleSide::kRhs)});
      }
      nodes.insert(nodes.end(), seg.taxonomy_nodes.begin(),
                   seg.taxonomy_nodes.end());
    }
  }
  out.Append(pebbles.data(), pebbles.size());
  out.Append(segments.data(), segments.size());
  out.Append(rules.data(), rules.size());
  out.Append(nodes.data(), nodes.size());
  return out.Take();
}

Status DecodePebbleTable(const SnapshotReader& reader, uint32_t section_id,
                         const std::vector<Record>& records,
                         const Knowledge& knowledge,
                         std::vector<PreparedRecord>* prepared) {
  Result<SnapshotReader::Section> section = reader.Find(section_id);
  if (!section.ok()) return section.status();
  std::string what = "pebble table section " + std::to_string(section_id);
  ByteReader in(section->data, section->size, what);

  Result<const PebbleTableHeader*> header_r = in.Take<PebbleTableHeader>(1);
  if (!header_r.ok()) return header_r.status();
  const PebbleTableHeader& header = **header_r;
  if (header.num_records != records.size()) {
    return Status::FailedPrecondition(
        what + " holds " + std::to_string(header.num_records) +
        " records, the collection has " + std::to_string(records.size()));
  }
  uint64_t n = header.num_records;

  Result<const uint64_t*> pebble_offsets_r = in.Take<uint64_t>(n + 1);
  if (!pebble_offsets_r.ok()) return pebble_offsets_r.status();
  Result<const uint64_t*> segment_offsets_r = in.Take<uint64_t>(n + 1);
  if (!segment_offsets_r.ok()) return segment_offsets_r.status();
  Result<const uint32_t*> num_tokens_r = in.Take<uint32_t>(n);
  if (!num_tokens_r.ok()) return num_tokens_r.status();
  const uint64_t* pebble_offsets = *pebble_offsets_r;
  const uint64_t* segment_offsets = *segment_offsets_r;
  const uint32_t* num_tokens = *num_tokens_r;
  if (pebble_offsets[0] != 0 || segment_offsets[0] != 0 ||
      pebble_offsets[n] != header.total_pebbles ||
      segment_offsets[n] != header.total_segments) {
    return Status::Corruption(what + ": offsets disagree with totals");
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (pebble_offsets[i] > pebble_offsets[i + 1] ||
        segment_offsets[i] > segment_offsets[i + 1]) {
      return Status::Corruption(what + ": offsets not monotone");
    }
    if (num_tokens[i] != records[i].num_tokens()) {
      return Status::FailedPrecondition(
          what + ": record " + std::to_string(i) + " has " +
          std::to_string(records[i].num_tokens()) +
          " tokens, the snapshot stored " + std::to_string(num_tokens[i]));
    }
  }

  Result<const PebbleRow*> pebbles_r =
      in.Take<PebbleRow>(header.total_pebbles);
  if (!pebbles_r.ok()) return pebbles_r.status();
  Result<const SegmentRow*> segments_r =
      in.Take<SegmentRow>(header.total_segments);
  if (!segments_r.ok()) return segments_r.status();
  Result<const RuleMatchRow*> rules_r =
      in.Take<RuleMatchRow>(header.total_rule_matches);
  if (!rules_r.ok()) return rules_r.status();
  Result<const uint32_t*> nodes_r =
      in.Take<uint32_t>(header.total_taxonomy_nodes);
  if (!nodes_r.ok()) return nodes_r.status();
  if (!in.Exhausted()) {
    return Status::Corruption(what + ": trailing bytes after the arrays");
  }

  uint64_t num_rules =
      knowledge.rules == nullptr ? 0 : knowledge.rules->num_rules();
  uint64_t num_nodes =
      knowledge.taxonomy == nullptr ? 0 : knowledge.taxonomy->num_nodes();
  uint64_t rule_cursor = 0;
  uint64_t node_cursor = 0;
  prepared->clear();
  prepared->resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    PreparedRecord& pr = (*prepared)[i];
    pr.num_tokens = num_tokens[i];
    uint64_t seg_count = segment_offsets[i + 1] - segment_offsets[i];
    pr.pebbles.segments.reserve(seg_count);
    for (uint64_t s = segment_offsets[i]; s < segment_offsets[i + 1]; ++s) {
      const SegmentRow& row = (*segments_r)[s];
      if (row.begin > row.end || row.end > num_tokens[i]) {
        return Status::Corruption(what + ": segment span out of range");
      }
      if (row.rule_count > header.total_rule_matches - rule_cursor ||
          row.node_count > header.total_taxonomy_nodes - node_cursor) {
        return Status::Corruption(what + ": segment consumes more matches " +
                                  "than the flat arrays hold");
      }
      WellDefinedSegment seg;
      seg.span = Segment{row.begin, row.end};
      seg.rule_matches.reserve(row.rule_count);
      for (uint32_t r = 0; r < row.rule_count; ++r) {
        const RuleMatchRow& m = (*rules_r)[rule_cursor++];
        if (m.rule >= num_rules || m.side > 1) {
          return Status::Corruption(what + ": rule match out of range");
        }
        seg.rule_matches.push_back(RuleMatch{
            m.rule, m.side == 0 ? RuleSide::kLhs : RuleSide::kRhs});
      }
      seg.taxonomy_nodes.reserve(row.node_count);
      for (uint32_t r = 0; r < row.node_count; ++r) {
        uint32_t node = (*nodes_r)[node_cursor++];
        if (node >= num_nodes) {
          return Status::Corruption(what + ": taxonomy node out of range");
        }
        seg.taxonomy_nodes.push_back(node);
      }
      pr.pebbles.segments.push_back(std::move(seg));
    }
    uint64_t pebble_count = pebble_offsets[i + 1] - pebble_offsets[i];
    pr.pebbles.pebbles.reserve(pebble_count);
    for (uint64_t p = pebble_offsets[i]; p < pebble_offsets[i + 1]; ++p) {
      const PebbleRow& row = (*pebbles_r)[p];
      if (row.segment >= seg_count || row.measure > 0xFF) {
        return Status::Corruption(what + ": pebble provenance out of range");
      }
      pr.pebbles.pebbles.push_back(Pebble{row.key, row.weight, row.segment,
                                          static_cast<uint8_t>(row.measure)});
    }
  }
  if (rule_cursor != header.total_rule_matches ||
      node_cursor != header.total_taxonomy_nodes) {
    return Status::Corruption(what + ": flat match arrays not fully consumed");
  }
  return Status::OK();
}

// --- appended-record texts (generational checkpoints) -----------------

/// kSectionAppendedTexts payload: u64 base_count, u64 count, u64
/// byte_offsets[count + 1], then the concatenated raw texts of records
/// base_count .. base_count + count - 1 in id order.
std::vector<uint8_t> EncodeAppendedTexts(const std::vector<Record>& records,
                                         uint64_t base_count) {
  ByteWriter out;
  uint64_t count = records.size() - base_count;
  out.AppendValue(base_count);
  out.AppendValue(count);
  std::vector<uint64_t> offsets(count + 1, 0);
  for (uint64_t i = 0; i < count; ++i) {
    offsets[i + 1] = offsets[i] + records[base_count + i].text.size();
  }
  out.Append(offsets.data(), offsets.size());
  // One contiguous blob (same reasoning as the gram dictionary: per-text
  // Append calls would inject alignment padding between texts).
  std::string blob;
  blob.reserve(offsets[count]);
  for (uint64_t i = 0; i < count; ++i) blob += records[base_count + i].text;
  out.Append(blob.data(), blob.size());
  return out.Take();
}

/// Shared body of PreparedIndex::Save and SaveIndexCheckpoint; when
/// `appended_texts` is non-null it is written as kSectionAppendedTexts.
Status SaveSnapshotImpl(const PreparedIndex& index, const std::string& path,
                        Env* env, const std::vector<uint8_t>* appended_texts) {
  // The snapshot's whole point is skipping the two expensive phases
  // (pebble generation and the CSR build), so the CSR must exist
  // before serialisation; ServingIndex() builds it on first use.
  const CsrIndex& csr = index.ServingIndex();

  SnapshotMeta meta;
  const MsimOptions& msim = index.msim_options();
  meta.msim_q = static_cast<uint32_t>(msim.q);
  meta.gram_measure = static_cast<uint32_t>(msim.gram_measure);
  meta.measures = msim.measures;
  meta.exact_match = msim.exact_match ? 1 : 0;
  meta.s_count = index.s_records().size();
  meta.t_count = index.t_records().size();
  meta.self_join = index.self_join() ? 1 : 0;
  meta.s_records_hash = HashRecords(index.s_records());
  meta.t_records_hash = index.self_join() ? meta.s_records_hash
                                          : HashRecords(index.t_records());
  meta.knowledge_hash = HashKnowledge(index.knowledge());
  meta.gram_dict_size = index.gram_dict().size();
  meta.csr_record_universe = csr.record_universe();
  meta.prepare_seconds = index.prepare_seconds();

  std::vector<uint8_t> gram_dict = EncodeGramDict(index.gram_dict());
  std::vector<uint8_t> order = EncodeGlobalOrder(index.global_order());
  std::vector<uint8_t> s_table = EncodePebbleTable(index.s_prepared());
  std::vector<uint8_t> t_table;
  if (!index.self_join()) t_table = EncodePebbleTable(index.t_prepared());

  SnapshotWriter writer(path, env);
  writer.AddSection(kSectionMeta, &meta, sizeof(meta));
  writer.AddSection(kSectionGramDict, gram_dict.data(), gram_dict.size());
  writer.AddSection(kSectionGlobalOrder, order.data(), order.size());
  writer.AddSection(kSectionSPrepared, s_table.data(), s_table.size());
  if (!index.self_join()) {
    writer.AddSection(kSectionTPrepared, t_table.data(), t_table.size());
  }
  writer.AddSection(kSectionCsrKeys, csr.keys_data(),
                    csr.num_keys() * sizeof(uint64_t));
  writer.AddSection(kSectionCsrOffsets, csr.offsets_data(),
                    (csr.num_keys() + 1) * sizeof(uint32_t));
  writer.AddSection(kSectionCsrPostings, csr.postings_data(),
                    csr.total_postings() * sizeof(uint32_t));
  writer.AddSection(kSectionCsrSlots, csr.slots_data(),
                    csr.num_slots() * sizeof(uint32_t));
  if (appended_texts != nullptr) {
    writer.AddSection(kSectionAppendedTexts, appended_texts->data(),
                      appended_texts->size());
  }
  return writer.Finish();
}

}  // namespace

// --- PreparedIndex::Save ----------------------------------------------

Status PreparedIndex::Save(const std::string& path, Env* env) const {
  return SaveSnapshotImpl(*this, path, env, nullptr);
}

// --- generational checkpoints -----------------------------------------

Status SaveIndexCheckpoint(const PreparedIndex& index, uint64_t base_count,
                           const std::string& path, Env* env) {
  if (!index.self_join()) {
    return Status::InvalidArgument(
        "checkpoints only apply to self-join (serving) indexes");
  }
  if (base_count > index.s_records().size()) {
    return Status::InvalidArgument(
        "checkpoint base_count " + std::to_string(base_count) +
        " exceeds the record count " +
        std::to_string(index.s_records().size()));
  }
  std::vector<uint8_t> texts =
      EncodeAppendedTexts(index.s_records(), base_count);
  return SaveSnapshotImpl(index, path, env, &texts);
}

Result<CheckpointTexts> ReadCheckpointTexts(const std::string& path,
                                            Env* env) {
  Result<std::shared_ptr<const SnapshotReader>> reader_r =
      SnapshotReader::Open(path, env);
  if (!reader_r.ok()) return reader_r.status();
  const SnapshotReader& reader = **reader_r;

  Result<const SnapshotMeta*> meta_r =
      reader.Array<SnapshotMeta>(kSectionMeta, 1);
  if (!meta_r.ok()) return meta_r.status();
  const SnapshotMeta& meta = **meta_r;

  CheckpointTexts out;
  if (!reader.Has(kSectionAppendedTexts)) {
    // A plain snapshot: everything is base, nothing was appended.
    out.base_count = meta.t_count;
    return out;
  }

  Result<SnapshotReader::Section> section =
      reader.Find(kSectionAppendedTexts);
  if (!section.ok()) return section.status();
  ByteReader in(section->data, section->size, "appended texts");
  Result<const uint64_t*> base_r = in.Take<uint64_t>(1);
  if (!base_r.ok()) return base_r.status();
  Result<const uint64_t*> count_r = in.Take<uint64_t>(1);
  if (!count_r.ok()) return count_r.status();
  uint64_t base_count = **base_r;
  uint64_t count = **count_r;
  if (count >= section->size) {  // also blocks count + 1 wrapping to 0
    return Status::Corruption(path +
                              ": appended-texts count exceeds the section");
  }
  if (base_count + count != meta.t_count) {
    return Status::Corruption(
        path + ": appended-texts base " + std::to_string(base_count) + " + " +
        std::to_string(count) + " disagrees with the snapshot record count " +
        std::to_string(meta.t_count));
  }
  Result<const uint64_t*> offsets_r = in.Take<uint64_t>(count + 1);
  if (!offsets_r.ok()) return offsets_r.status();
  const uint64_t* offsets = *offsets_r;
  if (offsets[0] != 0) {
    return Status::Corruption(path + ": appended-texts offsets must start " +
                              "at 0");
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::Corruption(path +
                                ": appended-texts offsets not monotone");
    }
  }
  Result<const char*> blob_r = in.Take<char>(count == 0 ? 0 : offsets[count]);
  if (!blob_r.ok()) return blob_r.status();
  out.base_count = base_count;
  out.texts.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    out.texts.emplace_back(*blob_r + offsets[i], offsets[i + 1] - offsets[i]);
  }
  return out;
}

// --- PreparedIndex::Load ----------------------------------------------

Result<std::shared_ptr<const PreparedIndex>> PreparedIndex::Load(
    const Knowledge& knowledge, const MsimOptions& msim,
    const std::vector<Record>& s, const std::vector<Record>* t,
    const std::string& path, Env* env) {
  Result<std::shared_ptr<const SnapshotReader>> reader_r =
      SnapshotReader::Open(path, env);
  if (!reader_r.ok()) return reader_r.status();
  std::shared_ptr<const SnapshotReader> reader = *reader_r;

  Result<const SnapshotMeta*> meta_r =
      reader->Array<SnapshotMeta>(kSectionMeta, 1);
  if (!meta_r.ok()) return meta_r.status();
  const SnapshotMeta& meta = **meta_r;

  // World identity first: a valid snapshot of the wrong inputs must be
  // refused before any derived state is adopted.
  const std::vector<Record>* t_ptr = (t == nullptr) ? &s : t;
  bool self = (t_ptr == &s);
  if (meta.msim_q != static_cast<uint32_t>(msim.q) ||
      meta.gram_measure != static_cast<uint32_t>(msim.gram_measure) ||
      meta.measures != msim.measures ||
      meta.exact_match != (msim.exact_match ? 1u : 0u)) {
    return Status::FailedPrecondition(
        path + ": snapshot was built with different similarity options");
  }
  if ((meta.self_join != 0) != self || meta.s_count != s.size() ||
      meta.t_count != t_ptr->size()) {
    return Status::FailedPrecondition(
        path + ": snapshot records " + std::to_string(meta.s_count) + "/" +
        std::to_string(meta.t_count) + " (self_join=" +
        std::to_string(meta.self_join) + ") do not match the collections");
  }
  if (meta.s_records_hash != HashRecords(s) ||
      meta.t_records_hash !=
          (self ? meta.s_records_hash : HashRecords(*t_ptr))) {
    return Status::FailedPrecondition(
        path + ": snapshot was built from different record contents");
  }
  if (meta.knowledge_hash != HashKnowledge(knowledge)) {
    return Status::FailedPrecondition(
        path + ": snapshot was built against different knowledge " +
        "(rules/taxonomy/vocabulary)");
  }

  std::shared_ptr<PreparedIndex> index(new PreparedIndex());
  index->knowledge_ = knowledge;
  index->msim_ = msim;
  index->s_records_ = &s;
  index->t_records_ = t_ptr;
  index->prepare_seconds_ = meta.prepare_seconds;

  AUJOIN_RETURN_NOT_OK(DecodeGramDict(*reader, &index->gram_dict_));
  if (index->gram_dict_.size() != meta.gram_dict_size) {
    return Status::Corruption(path + ": gram dictionary size disagrees " +
                              "with the snapshot meta");
  }
  AUJOIN_RETURN_NOT_OK(DecodeGlobalOrder(*reader, &index->order_));
  AUJOIN_RETURN_NOT_OK(DecodePebbleTable(*reader, kSectionSPrepared, s,
                                         knowledge, &index->s_prepared_));
  if (!self) {
    AUJOIN_RETURN_NOT_OK(DecodePebbleTable(*reader, kSectionTPrepared, *t_ptr,
                                           knowledge, &index->t_prepared_));
  }

  // CSR serving sections: adopted in place, no copy — the index keeps
  // the reader (and thus the mapping) alive through the CsrIndex owner
  // handle. Counts are derived from the section sizes themselves.
  Result<SnapshotReader::Section> keys_section =
      reader->Find(kSectionCsrKeys);
  if (!keys_section.ok()) return keys_section.status();
  if (keys_section->size % sizeof(uint64_t) != 0) {
    return Status::Corruption(path + ": CSR keys section size not a " +
                              "multiple of 8");
  }
  uint64_t num_keys = keys_section->size / sizeof(uint64_t);
  Result<const uint64_t*> keys_r =
      reader->Array<uint64_t>(kSectionCsrKeys, num_keys);
  if (!keys_r.ok()) return keys_r.status();
  Result<const uint32_t*> offsets_r =
      reader->Array<uint32_t>(kSectionCsrOffsets, num_keys + 1);
  if (!offsets_r.ok()) return offsets_r.status();
  Result<SnapshotReader::Section> postings_section =
      reader->Find(kSectionCsrPostings);
  if (!postings_section.ok()) return postings_section.status();
  if (postings_section->size % sizeof(uint32_t) != 0) {
    return Status::Corruption(path + ": CSR postings section size not a " +
                              "multiple of 4");
  }
  uint64_t num_postings = postings_section->size / sizeof(uint32_t);
  Result<const uint32_t*> postings_r =
      reader->Array<uint32_t>(kSectionCsrPostings, num_postings);
  if (!postings_r.ok()) return postings_r.status();
  Result<SnapshotReader::Section> slots_section =
      reader->Find(kSectionCsrSlots);
  if (!slots_section.ok()) return slots_section.status();
  if (slots_section->size % sizeof(uint32_t) != 0) {
    return Status::Corruption(path + ": CSR slots section size not a " +
                              "multiple of 4");
  }
  uint64_t num_slots = slots_section->size / sizeof(uint32_t);
  Result<const uint32_t*> slots_r =
      reader->Array<uint32_t>(kSectionCsrSlots, num_slots);
  if (!slots_r.ok()) return slots_r.status();
  if (meta.csr_record_universe > t_ptr->size()) {
    return Status::Corruption(path + ": CSR record universe exceeds the " +
                              "T-side record count");
  }

  Result<CsrIndex> csr = CsrIndex::FromSections(
      *keys_r, num_keys, *offsets_r, *postings_r, num_postings, *slots_r,
      num_slots, meta.csr_record_universe, reader);
  if (!csr.ok()) return csr.status();
  // Published from birth with 0 s: this process never paid the build
  // (callers measure the snapshot load separately).
  index->serving_.Get([&] {
    return std::make_shared<const Serving>(Serving{std::move(*csr)});
  });
  return std::shared_ptr<const PreparedIndex>(std::move(index));
}

}  // namespace aujoin
