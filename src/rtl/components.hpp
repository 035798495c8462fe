#pragma once
// Reusable structural components for the RTL kernel: the generic versions
// of the Fig-4 sub-systems (counters, shift-register banks, comparators,
// priority encoders, ROMs). Each is a Module with explicit port wiring
// and a describe() implementation, so composed designs inherit a correct
// synthesis inventory for free.

#include <vector>

#include "rtl/module.hpp"

namespace datc::rtl {

/// Up-counter with synchronous enable and clear (clear wins).
class Counter final : public Module {
 public:
  Counter(std::string name, unsigned width);

  void set_enable(bool v) { enable_.write(v); }
  void set_clear(bool v) { clear_.write(v); }
  [[nodiscard]] std::uint32_t value() const { return q_.read(); }

  void tick() override;
  void reset() override;
  void describe(std::vector<ComponentDescriptor>& out) const override;

  [[nodiscard]] Bus& q() { return q_; }

 private:
  unsigned width_;
  std::uint32_t mask_;
  Bit& enable_;
  Bit& clear_;
  Bus& q_;
};

/// Parallel-load shift-register bank: N stages of `width` bits; on
/// shift-enable every stage takes its predecessor's value and stage 0
/// takes the data input (the N_one history of the DTC).
class ShiftRegisterBank final : public Module {
 public:
  ShiftRegisterBank(std::string name, unsigned width, std::size_t stages);

  void set_shift(bool v) { shift_.write(v); }
  void set_data(std::uint32_t v) { data_.write(v); }
  [[nodiscard]] std::uint32_t stage(std::size_t i) const;
  [[nodiscard]] std::size_t stages() const { return q_.size(); }

  void tick() override;
  void reset() override;
  void describe(std::vector<ComponentDescriptor>& out) const override;

 private:
  unsigned width_;
  Bit& shift_;
  Bus& data_;
  std::vector<Bus*> q_;
};

/// Combinational equality comparator against a programmable constant.
class EqualsConst final : public Module {
 public:
  EqualsConst(std::string name, unsigned width, std::uint32_t constant);

  void set_in(std::uint32_t v) { in_.write(v); }
  [[nodiscard]] bool out() const { return eq_.read(); }

  void eval() override;
  void describe(std::vector<ComponentDescriptor>& out) const override;

 private:
  unsigned width_;
  std::uint32_t constant_;
  Bus& in_;
  Bit& eq_;
};

/// Combinational priority encoder over threshold comparisons: given a
/// value and a monotone table of levels, outputs the highest index whose
/// level the value reaches (the Listing-1 chain as a reusable block).
class ThresholdPriorityEncoder final : public Module {
 public:
  ThresholdPriorityEncoder(std::string name, std::vector<std::uint32_t> levels,
                           unsigned min_index);

  void set_in(std::uint32_t v) { in_.write(v); }
  [[nodiscard]] unsigned out() const { return code_.read(); }
  void set_levels(std::vector<std::uint32_t> levels);

  void eval() override;
  void describe(std::vector<ComponentDescriptor>& out) const override;

 private:
  std::vector<std::uint32_t> levels_;
  unsigned min_index_;
  Bus& in_;
  Bus& code_;
};

/// Combinational ROM (constant table) with registered-free async read.
class Rom final : public Module {
 public:
  Rom(std::string name, std::vector<std::uint32_t> contents, unsigned width);

  void set_addr(std::uint32_t a) { addr_.write(a); }
  [[nodiscard]] std::uint32_t out() const { return data_.read(); }
  [[nodiscard]] std::size_t entries() const { return contents_.size(); }

  void eval() override;
  void describe(std::vector<ComponentDescriptor>& out) const override;

 private:
  std::vector<std::uint32_t> contents_;
  unsigned width_;
  Bus& addr_;
  Bus& data_;
};

}  // namespace datc::rtl
