// ckpt::AnyRenamer — a type-erased Renamer whose implementation can be
// swapped at runtime: the seam live re-sharding migration turns on.
// svc::Server<Structure> holds a `Structure&` for the lifetime of its
// worker, so the server cannot change structure *types* mid-run — but
// it can front an AnyRenamer whose impl is replaced while the worker
// is quiesced (Server::migrate): save() the old impl's image, build a
// differently configured impl, restore() into it, replace(). Names keep
// their numeric identity across the swap (the api::restore contract),
// so the server's per-pid held bitmaps and every client's outstanding
// names stay valid.
//
// The virtual boundary is monomorphic on rng::MarsagliaXorshift — the
// same anchor the static is_renamer_v contract detects against, and the
// generator the svc worker loop instantiates — so AnyRenamer itself
// satisfies the static contract (is_renamer_v, has_batch_ops_v,
// has_snapshot_v) and drops into Server, api::save/restore, and the
// harnesses unchanged. The indirection costs one virtual call per op;
// the structures behind it amortize far more than that per op, and the
// erasure is only used on the migration-capable service path.
//
// replace() is NOT thread-safe: callers must own exclusive access to
// the structure (Server::migrate's worker quiesce handshake provides
// it; the happens-before to the resumed worker rides on the
// handshake's release/acquire pair, so the impl pointer itself needs no
// atomicity).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/snapshot.hpp"
#include "core/types.hpp"
#include "rng/rng.hpp"

namespace la::ckpt {

class AnyRenamer {
 public:
  template <typename T>
  AnyRenamer(std::unique_ptr<T> impl, std::string tag)
      : impl_(wrap(std::move(impl))), tag_(std::move(tag)) {}

  AnyRenamer(const AnyRenamer&) = delete;
  AnyRenamer& operator=(const AnyRenamer&) = delete;

  // Swap the implementation. Precondition: no concurrent ops (see the
  // header comment); the old impl is destroyed before return.
  template <typename T>
  void replace(std::unique_ptr<T> impl, std::string tag) {
    impl_ = wrap(std::move(impl));
    tag_ = std::move(tag);
  }

  // Registry key of the current impl ("sharded:level", ...), for labels
  // and the image provenance field.
  const std::string& tag() const { return tag_; }

  GetResult get(rng::MarsagliaXorshift& rng) { return impl_->get(rng); }
  std::size_t get_batch(rng::MarsagliaXorshift& rng, GetResult* out,
                        std::size_t k) {
    return impl_->get_batch(rng, out, k);
  }
  void free(std::uint64_t name) { impl_->free(name); }
  void free_batch(const std::uint64_t* names, std::size_t k) {
    impl_->free_batch(names, k);
  }
  std::size_t collect(std::vector<std::uint64_t>& out) const {
    return impl_->collect(out);
  }
  std::uint64_t capacity() const { return impl_->capacity(); }
  std::uint64_t total_slots() const { return impl_->total_slots(); }
  void adopt_held(std::uint64_t name) { impl_->adopt_held(name); }

 private:
  struct Concept {
    virtual ~Concept() = default;
    virtual GetResult get(rng::MarsagliaXorshift& rng) = 0;
    virtual std::size_t get_batch(rng::MarsagliaXorshift& rng, GetResult* out,
                                  std::size_t k) = 0;
    virtual void free(std::uint64_t name) = 0;
    virtual void free_batch(const std::uint64_t* names, std::size_t k) = 0;
    virtual std::size_t collect(std::vector<std::uint64_t>& out) const = 0;
    virtual std::uint64_t capacity() const = 0;
    virtual std::uint64_t total_slots() const = 0;
    virtual void adopt_held(std::uint64_t name) = 0;
  };

  template <typename T>
  struct Model final : Concept {
    explicit Model(std::unique_ptr<T> impl) : inner(std::move(impl)) {}
    GetResult get(rng::MarsagliaXorshift& rng) override {
      return inner->get(rng);
    }
    std::size_t get_batch(rng::MarsagliaXorshift& rng, GetResult* out,
                          std::size_t k) override {
      return api::get_batch(*inner, rng, out, k);
    }
    void free(std::uint64_t name) override { inner->free(name); }
    void free_batch(const std::uint64_t* names, std::size_t k) override {
      api::free_batch(*inner, names, k);
    }
    std::size_t collect(std::vector<std::uint64_t>& out) const override {
      return inner->collect(out);
    }
    std::uint64_t capacity() const override { return inner->capacity(); }
    std::uint64_t total_slots() const override { return inner->total_slots(); }
    void adopt_held(std::uint64_t name) override { inner->adopt_held(name); }
    std::unique_ptr<T> inner;
  };

  template <typename T>
  static std::unique_ptr<Concept> wrap(std::unique_ptr<T> impl) {
    // Only restorable impls: migration restores into whatever replace()
    // installs, so a save-only structure has no place behind the seam.
    static_assert(api::has_snapshot_v<T>,
                  "ckpt::AnyRenamer erases the api::Renamer contract with "
                  "checkpoint adoption (has_snapshot_v)");
    if (impl == nullptr) {
      throw std::invalid_argument("ckpt::AnyRenamer: null implementation");
    }
    return std::make_unique<Model<T>>(std::move(impl));
  }

  std::unique_ptr<Concept> impl_;
  std::string tag_;
};

static_assert(api::is_renamer_v<AnyRenamer>);
static_assert(api::has_batch_ops_v<AnyRenamer>);
static_assert(api::has_snapshot_v<AnyRenamer>);

}  // namespace la::ckpt
