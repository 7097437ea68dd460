module Frame = Frame
module Proto = Proto
module Admission = Admission
module Tenant = Tenant
module Mine_plan = Mine_plan
module Dispatch = Dispatch
module Engine = Engine
module Client = Client
