type t =
  | Token_equivalence
  | Structural_equivalence
  | Result_equivalence
  | Access_area_equivalence
[@@deriving show, eq]

let of_measure = function
  | Distance.Measure.Token | Distance.Measure.Edit -> Token_equivalence
  | Distance.Measure.Structure | Distance.Measure.Clause ->
    Structural_equivalence
  | Distance.Measure.Result -> Result_equivalence
  | Distance.Measure.Access -> Access_area_equivalence

let to_string = function
  | Token_equivalence -> "Token Equivalence"
  | Structural_equivalence -> "Structural Equivalence"
  | Result_equivalence -> "Result Equivalence"
  | Access_area_equivalence -> "Access-Area Equivalence"

let characteristic_name = function
  | Token_equivalence -> "tokens"
  | Structural_equivalence -> "features"
  | Result_equivalence -> "result tuples"
  | Access_area_equivalence -> "access_A"
