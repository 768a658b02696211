(** The catalog of implementations under test, with the metadata that drives
    the Table 1 / Table 2 reproduction: which .NET class each adapter
    models, which release it corresponds to (Beta2 or the CTP "Pre"
    versions), and the expected Line-Up outcome with its root-cause tag
    (A–L, Section 5.2). *)

type expected =
  | Pass
  | Bug of string  (** root causes A–G: real implementation errors *)
  | Intentional_nondeterminism of string  (** H, I, J *)
  | Intentional_nonlinearizability of string  (** K, L *)

type entry = {
  adapter : Lineup.Adapter.t;
  class_name : string;  (** the .NET class of Table 1 *)
  version : [ `Beta2 | `Pre ];
  expected : expected;
  defect : string option;  (** one-line description of the seeded defect *)
  min_dims : (int * int) option;
      (** smallest failing test dimensions (rows × columns), when failing:
          Table 2's recorded column *)
  regression : Lineup.Test_matrix.t option;
      (** the minimal regression test of §5.1 that this entry fails; [Some]
          exactly for the {!failing_entries} *)
}

val all : entry list

(** Entries grouped as the rows of Table 2 (one per class/version). *)
val table2_rows : entry list

(** The known-good subjects (expected PASS). *)
val correct_entries : entry list

(** The entries expected to fail, with their root-cause letter, in
    registry order. [lineup repro], the bench's targeted tests and the
    registry sweep of the tests all run their [regression] tests. *)
val failing_entries : (string * entry) list

val find : string -> entry
(** [find name] looks an entry up by adapter name; raises [Not_found]. *)
