#include "search/inverted_index.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"

namespace cca::search {

PostingList::PostingList(std::vector<std::uint64_t> doc_ids)
    : doc_ids_(std::move(doc_ids)) {
  std::sort(doc_ids_.begin(), doc_ids_.end());
  doc_ids_.erase(std::unique(doc_ids_.begin(), doc_ids_.end()),
                 doc_ids_.end());
}

bool PostingList::contains(std::uint64_t id) const {
  return std::binary_search(doc_ids_.begin(), doc_ids_.end(), id);
}

void intersect_into(const std::uint64_t* a, std::size_t na,
                    const std::uint64_t* b, std::size_t nb,
                    std::vector<std::uint64_t>& out) {
  out.clear();
  const std::uint64_t* small = a;
  std::size_t nsmall = na;
  const std::uint64_t* large = b;
  std::size_t nlarge = nb;
  if (nsmall > nlarge) {
    std::swap(small, large);
    std::swap(nsmall, nlarge);
  }

  if (nlarge > nsmall * 16) {
    // Galloping: binary-search each small element in the large list,
    // restarting from the previous hit position.
    const std::uint64_t* begin = large;
    const std::uint64_t* end = large + nlarge;
    for (std::size_t i = 0; i < nsmall; ++i) {
      begin = std::lower_bound(begin, end, small[i]);
      if (begin == end) break;
      if (*begin == small[i]) out.push_back(small[i]);
    }
  } else {
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < nsmall && j < nlarge) {
      if (small[i] < large[j]) {
        ++i;
      } else if (large[j] < small[i]) {
        ++j;
      } else {
        out.push_back(small[i]);
        ++i;
        ++j;
      }
    }
  }
}

void unite_into(const std::uint64_t* a, std::size_t na,
                const std::uint64_t* b, std::size_t nb,
                std::vector<std::uint64_t>& out) {
  out.clear();
  std::set_union(a, a + na, b, b + nb, std::back_inserter(out));
}

PostingList intersect(const PostingList& a, const PostingList& b) {
  std::vector<std::uint64_t> out;
  out.reserve(std::min(a.size(), b.size()));
  intersect_into(a.ids().data(), a.size(), b.ids().data(), b.size(), out);
  return PostingList(std::move(out));
}

PostingList unite(const PostingList& a, const PostingList& b) {
  std::vector<std::uint64_t> out;
  out.reserve(a.size() + b.size());
  unite_into(a.ids().data(), a.size(), b.ids().data(), b.size(), out);
  return PostingList(std::move(out));
}

InvertedIndex InvertedIndex::build(const trace::Corpus& corpus) {
  // Documents in ascending id order, sorted once: every list then fills in
  // ascending order and a repeat of its last id is a duplicate, so lists
  // come out sorted and unique with no per-list sort.
  const std::vector<trace::Document>& docs = corpus.documents();
  std::vector<std::uint32_t> order(docs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&docs](std::uint32_t a, std::uint32_t b) {
              return docs[a].id < docs[b].id;
            });
  const std::vector<std::size_t> frequency = corpus.document_frequencies();
  std::vector<std::vector<std::uint64_t>> raw(corpus.vocabulary_size());
  for (std::size_t k = 0; k < raw.size(); ++k) raw[k].reserve(frequency[k]);
  for (const std::uint32_t d : order)
    for (const trace::KeywordId w : docs[d].words)
      if (raw[w].empty() || raw[w].back() != docs[d].id)
        raw[w].push_back(docs[d].id);

  InvertedIndex index;
  index.lists_.reserve(raw.size());
  for (auto& ids : raw)
    index.lists_.push_back(
        PostingList(std::move(ids), PostingList::SortedUnique{}));
  return index;
}

const PostingList& InvertedIndex::postings(trace::KeywordId k) const {
  CCA_CHECK_MSG(k < lists_.size(), "keyword " << k << " outside vocabulary");
  return lists_[k];
}

std::vector<std::uint64_t> InvertedIndex::index_sizes() const {
  std::vector<std::uint64_t> sizes(lists_.size());
  for (std::size_t k = 0; k < lists_.size(); ++k)
    sizes[k] = lists_[k].size_bytes();
  return sizes;
}

std::uint64_t InvertedIndex::total_bytes() const {
  std::uint64_t total = 0;
  for (const PostingList& list : lists_) total += list.size_bytes();
  return total;
}

}  // namespace cca::search
