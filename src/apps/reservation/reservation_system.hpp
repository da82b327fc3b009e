// ReservationSystem: sequential functional component for the online
// reservation scenario from the paper's §2 ("on-line reservation systems").
//
// A rows × cols seat grid with reserve/cancel/query operations. Again: no
// locking here — concurrency discipline (readers-writer + priority
// scheduling) is composed by make_reservation_proxy().
//
// Seat layout (DESIGN.md §4.6): a seat is a 4-byte holder id, 0 = free, so
// building a grid is one zero fill. An id indexes a holder table entry (the
// name and how many seats it holds); a name-to-id map resolves `who` on
// reserve, and an id goes back on a free list when its holder's last seat
// is cancelled, so the table never has more entries than the most seats
// held at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace amf::apps::reservation {

/// Seat coordinates.
struct Seat {
  std::size_t row = 0;
  std::size_t col = 0;

  friend bool operator==(const Seat&, const Seat&) = default;
};

/// In-memory seat map.
class ReservationSystem {
 public:
  /// Throws std::invalid_argument, before allocating, for an empty grid or
  /// one with more than 2^32 - 1 seats.
  ReservationSystem(std::size_t rows, std::size_t cols)
      : rows_(rows),
        cols_(cols),
        seats_(seat_count(rows, cols)),
        available_(seats_.size()) {}

  /// Reserves the seat for `who`; false when already held.
  bool reserve(Seat seat, const std::string& who) {
    std::uint32_t& id = seats_[index(seat)];
    if (id != 0) return false;
    id = holder_id(who);
    ++holders_[id - 1].seats;
    --available_;
    return true;
  }

  /// Cancels `who`'s reservation; false when the seat is not held by them.
  bool cancel(Seat seat, const std::string& who) {
    std::uint32_t& id = seats_[index(seat)];
    if (id == 0 || holders_[id - 1].name != who) return false;
    release_seat(id);
    id = 0;
    ++available_;
    return true;
  }

  /// Current holder of a seat (empty optional = free).
  std::optional<std::string> holder(Seat seat) const {
    const std::uint32_t id = seats_[index(seat)];
    if (id == 0) return std::nullopt;
    return holders_[id - 1].name;
  }

  /// Number of free seats.
  std::size_t available() const { return available_; }

  /// All seats held by `who`, in row-major order.
  std::vector<Seat> seats_of(const std::string& who) const {
    std::vector<Seat> out;
    const auto it = ids_.find(who);
    if (it == ids_.end()) return out;
    const std::uint32_t id = it->second;
    const std::size_t held = holders_[id - 1].seats;
    out.reserve(held);
    for (std::size_t i = 0; out.size() < held; ++i) {
      if (seats_[i] == id) out.push_back(Seat{i / cols_, i % cols_});
    }
    return out;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

 private:
  /// Largest grid: every seat may hold a distinct 32-bit id, 0 excluded.
  static constexpr std::size_t kMaxSeats =
      std::numeric_limits<std::uint32_t>::max();

  /// A holder table entry. Ids are 1-based indices into the table.
  struct Holder {
    std::string name;
    std::uint32_t seats = 0;      // 0 = on the free list
    std::uint32_t next_free = 0;  // next free id while on the list; 0 = end
  };

  static std::size_t seat_count(std::size_t rows, std::size_t cols) {
    if (rows == 0 || cols == 0) {
      throw std::invalid_argument("grid must be non-empty");
    }
    if (rows > kMaxSeats / cols) {
      throw std::invalid_argument("grid exceeds 2^32 - 1 seats");
    }
    return rows * cols;
  }

  std::size_t index(Seat seat) const {
    if (seat.row >= rows_ || seat.col >= cols_) {
      throw std::out_of_range("seat out of range");
    }
    return seat.row * cols_ + seat.col;
  }

  /// `who`'s id; a name without seats gets a free id or a new entry.
  std::uint32_t holder_id(const std::string& who) {
    const auto [it, fresh] = ids_.try_emplace(who, free_);
    if (!fresh) return it->second;
    try {
      if (free_ != 0) {
        Holder& h = holders_[free_ - 1];
        h.name = who;
        free_ = h.next_free;
      } else {
        holders_.push_back(Holder{who});
        it->second = static_cast<std::uint32_t>(holders_.size());
      }
    } catch (...) {
      ids_.erase(it);
      throw;
    }
    return it->second;
  }

  /// Drops one of `id`'s seats; its last seat frees the id and the name.
  void release_seat(std::uint32_t id) {
    Holder& h = holders_[id - 1];
    if (--h.seats != 0) return;
    ids_.erase(h.name);
    std::string().swap(h.name);  // returns a long name's buffer
    h.next_free = free_;
    free_ = id;
  }

  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::uint32_t> seats_;  // holder id per seat, row-major
  std::size_t available_;
  std::vector<Holder> holders_;
  std::unordered_map<std::string, std::uint32_t> ids_;  // name -> id
  std::uint32_t free_ = 0;  // head of the free-id list; 0 = empty
};

}  // namespace amf::apps::reservation
